// Package core ties the substrates together into the paper's system: a view
// maintenance optimizer. Given a catalog, a set of materialized view
// definitions and a pending update batch, it builds the shared AND-OR DAG,
// runs either plain Volcano maintenance optimization (the NoGreedy baseline,
// equivalent in class to [Vis98]) or the greedy materialized-view/index
// selection of §6, and emits executable maintenance plans plus a
// human-readable report.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/feedback"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// View is a registered materialized view.
type View struct {
	Name string
	Def  algebra.Node
	Root *dag.Equiv
}

// Options configures a System.
type Options struct {
	// Params are the cost-model constants (default cost.Default()).
	Params cost.Params
	// DisableSubsumption turns off subsumption derivations (σ and group-by).
	DisableSubsumption bool
}

// System is the optimizer instance for one catalog and view set.
type System struct {
	Cat     *catalog.Catalog
	Dag     *dag.DAG
	Model   *cost.Model
	Views   []View
	Queries []Query

	// Corr, when non-nil, supplies observed cardinalities that take
	// precedence over histogram estimates in every engine this system builds
	// (diff.NewEngineObserved). The adaptation pipeline sets it from the
	// runtime's feedback store (feedback.go); nil keeps the static path
	// byte-identical.
	Corr diff.Corrections

	prepared           bool
	disableSubsumption bool
}

// NewSystem creates a system over a catalog.
func NewSystem(cat *catalog.Catalog, opts Options) *System {
	p := opts.Params
	if p.BlockSize == 0 {
		p = cost.Default()
	}
	return &System{
		Cat: cat, Dag: dag.New(cat), Model: cost.NewModel(p),
		disableSubsumption: opts.DisableSubsumption,
	}
}

// AddView registers a view definition, inserting and expanding it in the
// shared DAG. Definition errors (unknown columns, self-joins, arity
// mismatches) are returned rather than panicking, since view text is user
// input.
func (s *System) AddView(name string, def algebra.Node) (v View, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid view %q: %v", name, r)
		}
	}()
	if s.prepared {
		return View{}, fmt.Errorf("core: views must be added before optimization")
	}
	root := s.Dag.AddQuery(name, def)
	v = View{Name: name, Def: def, Root: root}
	s.Views = append(s.Views, v)
	return v, nil
}

// prepare finalizes the DAG (subsumption derivations) once.
func (s *System) prepare() {
	if s.prepared {
		return
	}
	if !s.disableSubsumption {
		s.Dag.ApplySubsumption()
	}
	s.prepared = true
}

// RefreshMode says how a materialized result is refreshed.
type RefreshMode int

const (
	// Incremental merges computed differentials into the stored result.
	Incremental RefreshMode = iota
	// Recompute rebuilds the stored result from scratch.
	Recompute
)

// String names the mode.
func (m RefreshMode) String() string {
	if m == Incremental {
		return "incremental"
	}
	return "recompute"
}

// ViewPlan is the refresh decision for one view.
type ViewPlan struct {
	View                           View
	Mode                           RefreshMode
	IncrementalCost, RecomputeCost float64
}

// Cost is the cost of the chosen mode.
func (vp ViewPlan) Cost() float64 {
	if vp.Mode == Incremental {
		return vp.IncrementalCost
	}
	return vp.RecomputeCost
}

// MaintenancePlan is the full outcome of maintenance optimization.
type MaintenancePlan struct {
	System  *System
	Engine  *diff.Engine
	Eval    *diff.Eval
	Views   []ViewPlan
	Queries []QueryPlan
	// Greedy holds the selection result when the greedy optimizer ran.
	Greedy *greedy.Result
	// TotalCost is the estimated cost of one refresh cycle including the
	// maintenance of every extra materialized result.
	TotalCost float64
}

// OptimizeNoGreedy is the baseline: the views themselves are materialized,
// nothing extra is; plain Volcano (extended with differential costing)
// chooses between incremental maintenance and recomputation per view.
func (s *System) OptimizeNoGreedy(u *diff.UpdateSpec) *MaintenancePlan {
	s.prepare()
	en := diff.NewEngineObserved(s.Dag, s.Model, u, s.Corr)
	ms := diff.NewMatState()
	for _, v := range s.Views {
		ms.Fulls.Full[v.Root.ID] = true
	}
	ev := en.NewEval(ms)
	plan := &MaintenancePlan{System: s, Engine: en, Eval: ev}
	for _, v := range s.Views {
		plan.Views = append(plan.Views, s.viewPlan(en, ev, v))
		plan.TotalCost += plan.Views[len(plan.Views)-1].Cost()
	}
	return plan
}

// OptimizeGreedy runs the paper's greedy selection of extra temporary and
// permanent materializations (and indexes) on top of the view set.
func (s *System) OptimizeGreedy(u *diff.UpdateSpec, cfg greedy.Config) *MaintenancePlan {
	s.prepare()
	en := diff.NewEngineObserved(s.Dag, s.Model, u, s.Corr)
	roots := make([]*dag.Equiv, len(s.Views))
	for i, v := range s.Views {
		roots[i] = v.Root
	}
	res := greedy.Run(en, roots, cfg)
	plan := &MaintenancePlan{
		System: s, Engine: en, Eval: res.Eval, Greedy: res, TotalCost: res.FinalCost,
	}
	for _, v := range s.Views {
		plan.Views = append(plan.Views, s.viewPlan(en, res.Eval, v))
	}
	return plan
}

func (s *System) viewPlan(en *diff.Engine, ev *diff.Eval, v View) ViewPlan {
	inc := ev.MaintCost(v.Root)
	rec := ev.ComputeCost(v.Root) + s.Model.WriteCost(en.FinalRows(v.Root), dag.Width(v.Root))
	mode := Incremental
	if rec < inc {
		mode = Recompute
	}
	return ViewPlan{View: v, Mode: mode, IncrementalCost: inc, RecomputeCost: rec}
}

// Report renders a human-readable summary of the plan.
func (p *MaintenancePlan) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "maintenance plan: total cost %.3f s\n", p.TotalCost)
	for _, vp := range p.Views {
		fmt.Fprintf(&b, "  view %-22s %-11s (incremental %.3f s, recompute %.3f s)\n",
			vp.View.Name, vp.Mode, vp.IncrementalCost, vp.RecomputeCost)
	}
	for _, qp := range p.Queries {
		fmt.Fprintf(&b, "  query %-21s %.3f s per run × weight %.0f\n",
			qp.Query.Name, qp.Cost, qp.Query.Weight)
	}
	if p.Greedy != nil {
		fmt.Fprintf(&b, "  greedy: %.3f s → %.3f s (%d candidates, %d benefit calls)\n",
			p.Greedy.InitialCost, p.Greedy.FinalCost, p.Greedy.CandidateCount, p.Greedy.BenefitCalls)
		chosen := append([]greedy.Decision(nil), p.Greedy.Chosen...)
		sort.SliceStable(chosen, func(i, j int) bool { return chosen[i].Benefit > chosen[j].Benefit })
		for _, c := range chosen {
			kind := "temporary"
			if c.Permanent {
				kind = "permanent"
			}
			fmt.Fprintf(&b, "    + %-34s %-9s benefit %.3f s\n", c.Desc, kind, c.Benefit)
		}
	}
	return b.String()
}

// Explain renders, for every view, the full refresh strategy: the chosen
// mode, and either the recomputation plan or the per-update differential
// plans, as indented EXPLAIN-style trees.
func (p *MaintenancePlan) Explain() string {
	var b strings.Builder
	for _, vp := range p.Views {
		fmt.Fprintf(&b, "view %s — %s (cost %.3f s)\n", vp.View.Name, vp.Mode, vp.Cost())
		if vp.Mode == Recompute {
			b.WriteString(indent(volcano.Explain(p.Eval.ComputePlan(vp.View.Root)), "  "))
			continue
		}
		b.WriteString(indent(p.Eval.ExplainAll(vp.View.Root), "  "))
	}
	for _, qp := range p.Queries {
		fmt.Fprintf(&b, "query %s (cost %.3f s per run)\n", qp.Query.Name, qp.Cost)
		b.WriteString(indent(volcano.Explain(
			p.Eval.FullPlanAt(qp.Query.Root, p.Engine.FinalState())), "  "))
	}
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Query is a read-only workload element with a relative weight (executions
// per refresh cycle).
type Query struct {
	Name   string
	Def    algebra.Node
	Root   *dag.Equiv
	Weight float64
}

// AddQuery registers a read-only query for workload tuning. Queries share
// the DAG with the views, so common subexpressions unify and chosen
// materializations benefit both.
func (s *System) AddQuery(name string, def algebra.Node, weight float64) (q Query, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid query %q: %v", name, r)
		}
	}()
	if s.prepared {
		return Query{}, fmt.Errorf("core: queries must be added before optimization")
	}
	if weight <= 0 {
		weight = 1
	}
	root := s.Dag.AddQuery(name, def)
	q = Query{Name: name, Def: def, Root: root, Weight: weight}
	s.Queries = append(s.Queries, q)
	return q, nil
}

// workloadInputs projects the registered views and weighted queries into
// the form greedy selection consumes. Every cost comparison over one system
// must go through this single projection (OptimizeWorkload's selection, the
// adaptation pipeline's keep-baseline), so the two sides of a hysteresis
// decision can never use divergent formulations.
func (s *System) workloadInputs() ([]*dag.Equiv, []greedy.WeightedQuery) {
	roots := make([]*dag.Equiv, len(s.Views))
	for i, v := range s.Views {
		roots[i] = v.Root
	}
	queries := make([]greedy.WeightedQuery, len(s.Queries))
	for i, q := range s.Queries {
		queries[i] = greedy.WeightedQuery{Root: q.Root, Weight: q.Weight}
	}
	return roots, queries
}

// QueryPlan reports the evaluation cost of one workload query under a plan.
type QueryPlan struct {
	Query Query
	Cost  float64 // per execution, times Weight in the workload total
}

// OptimizeWorkload extends OptimizeGreedy to a mixed workload of view
// maintenance and weighted read-only queries (the paper's closing
// extension): the greedy selection minimizes
//
//	Σ_views refresh cost + Σ_queries weight × evaluation cost.
func (s *System) OptimizeWorkload(u *diff.UpdateSpec, cfg greedy.Config) *MaintenancePlan {
	s.prepare()
	en := diff.NewEngineObserved(s.Dag, s.Model, u, s.Corr)
	roots, queries := s.workloadInputs()
	res := greedy.RunWorkload(en, roots, queries, cfg)
	plan := &MaintenancePlan{
		System: s, Engine: en, Eval: res.Eval, Greedy: res, TotalCost: res.FinalCost,
	}
	for _, v := range s.Views {
		plan.Views = append(plan.Views, s.viewPlan(en, res.Eval, v))
	}
	for _, q := range s.Queries {
		plan.Queries = append(plan.Queries, QueryPlan{
			Query: q,
			Cost:  res.Eval.FullPlanAt(q.Root, en.FinalState()).CumCost,
		})
	}
	return plan
}

// Runtime executes a maintenance plan against real data. Refresh drives
// incremental maintenance; EnableServing/Query (serve.go) additionally
// serve read-only SQL queries concurrently with refreshes under epoch-based
// snapshot isolation; EnableAdapt/Adapt (adapt.go) re-run view selection
// against the observed workload and hot-swap the materialized set at epoch
// boundaries.
//
// Plan, Ex.Mat and Ex.Agg are replaced by adaptation swaps; they may be
// read freely from the refresh writer's goroutine (swaps happen there), but
// any other goroutine must not touch them while serving is live. Readers
// take the plan and its serving generation from the snapshot they hold
// instead: every published snapshot carries the materialized set it was
// maintained under (matSet, serve.go).
type Runtime struct {
	Plan *MaintenancePlan
	Ex   *exec.Executor
	Mt   *exec.Maintainer

	srvMu sync.Mutex
	srv   *server

	// dur is the durability state when the runtime was booted through
	// OpenDurable (durable.go); nil on plain in-memory runtimes.
	dur *durable

	// tracker observes the served workload (set at EnableServing).
	tracker *workload.Tracker

	// Adaptation state (adapt.go). adaptMu guards the options, the stats,
	// the last round's fingerprint and the feedback store; pending carries
	// a built-but-not-installed swap; building serializes background
	// rounds; cycle counters are writer-only.
	adaptMu         sync.Mutex
	adaptOpts       *AdaptOptions
	pending         atomic.Pointer[pendingSwap]
	building        atomic.Bool
	stats           AdaptStats
	lastFingerprint map[string]float64
	cycles          int
	lastRoundCycle  int

	// Feedback-driven costing state (feedback.go): the observed-cardinality
	// store and the shared operator-observation closure the serve path
	// attaches to its ad-hoc executors. Both are set once by EnableFeedback
	// (before concurrent refresh/serving) and read-only afterwards.
	fb *feedback.Store
	// fbCorrect distinguishes EnableFeedback (observations correct the next
	// adaptation round's cost model) from EnableFeedbackObserver (telemetry
	// only).
	fbCorrect bool
	fbObs     func(e *dag.Equiv, est, act float64)
}

// NewRuntime materializes every result the plan expects (views plus chosen
// full results) from the database and returns a refresh driver.
func (p *MaintenancePlan) NewRuntime(db *storage.Database) *Runtime {
	ex := exec.NewExecutor(db)
	ex.Sizer = p.Engine.FinalRows
	ids := make([]int, 0, len(p.Eval.MS.Fulls.Full))
	for id := range p.Eval.MS.Fulls.Full {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ex.MaterializeNode(p.System.Dag.Equivs[id])
	}
	return &Runtime{Plan: p, Ex: ex, Mt: exec.NewMaintainer(ex, p.Engine, p.Eval)}
}

// Refresh propagates all pending deltas through the stored results. With
// serving enabled it additionally feeds the workload tracker, installs any
// adaptation swap armed since the previous cycle (the call boundary is an
// epoch boundary, so the swap is atomic for readers), and — with EnableAdapt
// — triggers the next background re-selection round.
func (r *Runtime) Refresh() {
	r.InstallPending()
	r.observeCycle()
	r.Mt.Refresh()
	r.autoAdapt()
}

// observeCycle records the pending update-batch sizes into the workload
// tracker and closes the tracker's cycle.
func (r *Runtime) observeCycle() {
	if r.tracker == nil {
		return
	}
	counts := make(map[string]workload.Counts)
	for _, rel := range r.Mt.En.U.Rels {
		if d := r.Ex.DB.Delta(rel); d != nil {
			counts[rel] = workload.Counts{Ins: d.Plus.Len(), Del: d.Minus.Len()}
		}
	}
	r.tracker.ObserveRefresh(counts)
}

// SetWorkers bounds the worker pool of the refresh scheduler (0 =
// runtime.GOMAXPROCS(0), 1 = sequential). Refresh results are identical at
// any setting; see exec.Maintainer.Workers.
func (r *Runtime) SetWorkers(n int) { r.Mt.Workers = n }

// ViewRows returns the maintained contents of a view.
func (r *Runtime) ViewRows(v View) *storage.Relation {
	return r.Ex.Mat[v.Root.ID]
}

// Verify recomputes every view from base relations and checks multiset
// equality with the maintained copies, returning the first divergence.
func (r *Runtime) Verify() error {
	for _, vp := range r.Plan.Views {
		got := r.Ex.Mat[vp.View.Root.ID]
		want := r.Ex.EvalNode(vp.View.Root)
		if !storage.EqualMultiset(got, want) {
			return fmt.Errorf("core: view %q diverged: maintained %d rows, recomputed %d rows",
				vp.View.Name, got.Len(), want.Len())
		}
	}
	return nil
}
