// Package repro is a from-scratch Go reproduction of "Materialized View
// Selection and Maintenance Using Multi-Query Optimization" (Mistry, Roy,
// Ramamritham, Sudarshan — SIGMOD 2001). It finds efficient plans for
// refreshing a set of materialized views by exploiting common subexpressions
// between view maintenance expressions in a Volcano-style AND-OR DAG, and
// greedily selects extra results — temporary, permanent, and indexes — to
// materialize.
//
// The root package is a facade over the internal packages:
//
//	catalog — schemas, statistics, indexes, foreign keys
//	algebra — multiset relational algebra (logical trees, predicates)
//	viewdef — a small SQL subset for defining views as text
//	dag     — the AND-OR DAG with expansion, unification, subsumption
//	volcano — best-plan search with materialized-result reuse
//	diff    — differential (view maintenance) plan costing
//	greedy  — the paper's greedy selection with its optimizations
//	exec    — the one operator engine (columnar pipelines, rows gathered at
//	          the sink) and a refresh driver that schedules each update
//	          step's differentials concurrently as a task graph
//	storage — relations, deltas, hash indexes, epoch snapshots
//	cache   — benefit-based dynamic query-result caching (paper §8)
//	tpcd    — the TPC-D benchmark substrate of the paper's evaluation
//	bench   — regenerates every figure/table of the paper's §7, plus the
//	          parallel-refresh and concurrent-serving experiments
//
// Beyond optimization, a MaintenancePlan's Runtime executes refreshes and —
// after EnableServing — answers SQL queries concurrently with them under
// epoch-based snapshot isolation (Runtime.Query; see ARCHITECTURE.md).
//
// Quick start:
//
//	cat := tpcd.NewCatalog(0.1, true)
//	sys := repro.NewSystem(cat, repro.Options{})
//	def, _ := repro.ParseView(cat, `SELECT * FROM orders, customer
//	    WHERE orders.o_custkey = customer.c_custkey`)
//	sys.AddView("oc", def)
//	u := repro.UniformUpdates(cat, []string{"orders", "customer"}, 10)
//	plan := sys.OptimizeGreedy(u, repro.DefaultGreedyConfig())
//	fmt.Println(plan.Report())
package repro

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/viewdef"
)

// Re-exported types: the stable public surface.
type (
	// System is the view-maintenance optimizer for one catalog.
	System = core.System
	// Options configures a System.
	Options = core.Options
	// View is a registered materialized view.
	View = core.View
	// MaintenancePlan is the outcome of optimization.
	MaintenancePlan = core.MaintenancePlan
	// Runtime executes a plan against real data.
	Runtime = core.Runtime
	// RefreshMode is incremental vs recompute.
	RefreshMode = core.RefreshMode
	// ServeOptions configures Runtime.EnableServing.
	ServeOptions = core.ServeOptions
	// QueryResult is the answer to one served query.
	QueryResult = core.QueryResult
	// ServeStats counts serving activity.
	ServeStats = core.ServeStats

	// Catalog is database metadata.
	Catalog = catalog.Catalog
	// Table describes one base relation.
	Table = catalog.Table
	// Index describes an index.
	Index = catalog.Index

	// UpdateSpec describes a pending update batch.
	UpdateSpec = diff.UpdateSpec
	// GreedyConfig tunes candidate selection.
	GreedyConfig = greedy.Config
	// GreedyResult reports the chosen materializations.
	GreedyResult = greedy.Result

	// CostParams are the cost-model constants.
	CostParams = cost.Params

	// Node is a logical view definition tree.
	Node = algebra.Node
	// Database is the in-memory store used by Runtime.
	Database = storage.Database
)

// Refresh modes.
const (
	// Incremental merges differentials into the stored view.
	Incremental = core.Incremental
	// Recompute rebuilds the view from scratch.
	Recompute = core.Recompute
)

// NewSystem creates an optimizer over a catalog.
func NewSystem(cat *Catalog, opts Options) *System { return core.NewSystem(cat, opts) }

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// ParseView parses a SQL view definition (see internal/viewdef for the
// supported subset).
func ParseView(cat *Catalog, sql string) (Node, error) { return viewdef.Parse(cat, sql) }

// UniformUpdates builds the paper's update model: inserts of pct% and
// deletes of pct/2 % on each listed relation, propagated in list order.
func UniformUpdates(cat *Catalog, rels []string, pct float64) *UpdateSpec {
	return diff.UniformPercent(cat, rels, pct)
}

// NewUpdates builds an empty update spec over the given propagation order;
// fill Ins and Del per relation.
func NewUpdates(rels []string) *UpdateSpec { return diff.NewUpdateSpec(rels) }

// DefaultGreedyConfig enables all candidate kinds (full results,
// differentials, indexes), unbounded.
func DefaultGreedyConfig() GreedyConfig { return greedy.DefaultConfig() }

// DefaultCostParams returns the baseline cost-model constants (4 KB blocks,
// 8000-block buffer).
func DefaultCostParams() CostParams { return cost.Default() }

// SmallBufferParams returns the 1000-block configuration of the paper's
// buffer-size experiment.
func SmallBufferParams() CostParams { return cost.SmallBuffer() }

// NewDatabase creates an empty in-memory database.
func NewDatabase() *Database { return storage.NewDatabase() }
