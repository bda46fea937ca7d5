package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// Executor interprets physical plans against a database and a store of
// materialized results.
type Executor struct {
	DB *storage.Database
	// Mat holds materialized full results by equivalence-node ID.
	Mat map[int]*storage.Relation
	// Agg holds the mergeable state of materialized aggregate results.
	Agg map[int]*AggTable
	// Par configures partition-parallel operator execution (zero value:
	// sequential). Results are byte-identical at any setting for
	// non-aggregate operators and set-equal with identical counts for
	// aggregates. Set it before sharing the executor across goroutines.
	Par storage.Par
	// Sizer, when non-nil, estimates a node's final row count (the catalog-
	// derived sizers of the diff engine); materialization uses it to
	// pre-size aggregation state instead of growing from empty.
	Sizer func(e *dag.Equiv) float64
	// Obs, when non-nil, receives every operator output this executor
	// produces: the node, the optimizer's row estimate for it (PlanNode.Rows)
	// and the actual row count. The feedback store hangs off this hook to
	// accumulate observed cardinalities and estimation error; nil costs one
	// branch per operator.
	Obs func(e *dag.Equiv, est, act float64)
}

// NewExecutor wraps a database.
func NewExecutor(db *storage.Database) *Executor {
	return &Executor{
		DB:  db,
		Mat: make(map[int]*storage.Relation),
		Agg: make(map[int]*AggTable),
		Par: storage.DefaultPar(),
	}
}

// Run executes a full-result plan and returns the result in the plan
// equivalence node's schema. With Obs set, every node's actual output
// cardinality is reported against the plan's estimate — including Reuse
// reads, whose stored length is the node's true full cardinality.
func (ex *Executor) Run(p *volcano.PlanNode) *storage.Relation {
	return ex.runC(p).Materialize(p.E.Schema, ex.Par)
}

// runC executes a plan as a columnar pipeline: every operator accepts and
// emits a Batch, and rows are gathered only when the caller materializes the
// returned batch. A batch knows its logical cardinality without gathering,
// so per-node Obs reporting costs no rows.
func (ex *Executor) runC(p *volcano.PlanNode) *Batch {
	out := ex.planBatch(p)
	if ex.Obs != nil {
		ex.Obs(p.E, p.Rows, float64(out.Len()))
	}
	return out
}

// planBatch resolves one plan node: stored reads and scans are leaves, every
// other node resolves its children and applies the shared operator arm.
func (ex *Executor) planBatch(p *volcano.PlanNode) *Batch {
	switch p.Access {
	case volcano.Reuse:
		r := ex.Mat[p.E.ID]
		if r == nil {
			panic(fmt.Sprintf("exec: plan reuses e%d which is not materialized", p.E.ID))
		}
		return batchOf(r)
	case volcano.Probe:
		panic("exec: probe node executed directly (must be handled by its join)")
	}
	op := p.Op
	if op.Kind == dag.OpScan {
		return ex.scan(op.Table, p.E.Schema)
	}
	in := make([]*Batch, len(p.Children))
	for i, c := range p.Children {
		if i == 1 && p.Algo == volcano.AlgoINL {
			// An index nested-loop join's inner is read from its stored
			// location rather than computed. The engine has no per-key index
			// to descend: chainJoin builds a table on the side the plan
			// estimates smaller and scans the other side's carried hash
			// column behind that table's filter, so a stored inner costs one
			// filter test per row that cannot match — the in-memory stand-in
			// for the work the cost model's IndexJoinCost prices by the outer.
			in[i] = batchOf(ex.stored(c.E))
		} else {
			in[i] = ex.runC(c)
		}
	}
	return applyOp(op, in, op.Kind == dag.OpJoin && BuildLeftFromPlan(p), p.E.Schema, ex.Par, ex.sizeHint(p.E))
}

// scan reads a base relation as a batch in the given schema.
func (ex *Executor) scan(table string, schema algebra.Schema) *Batch {
	return batchOf(ex.DB.MustRelation(table)).project(schema, ex.Par)
}

// BuildLeftFromPlan decides a plan join's hash-build side from the
// optimizer's row estimates: build on the left child unless the right child
// is estimated strictly smaller (the same tie-break as the size-based rule,
// buildOnLeft). Plan-time commitment is deliberate — the shard lowering
// (internal/shard) must pick the identical side without executing either
// input, so it and Run both route through this function.
func BuildLeftFromPlan(p *volcano.PlanNode) bool {
	return !(p.Children[1].Rows < p.Children[0].Rows)
}

// Stored returns the stored image of a plan node the way Run's INL arm reads
// its probed inner: the base relation (projected to the node schema) for
// table leaves, the materialized copy otherwise. The shard lowering uses it
// to execute Probe-access build sides coordinator-side.
func (ex *Executor) Stored(e *dag.Equiv) *storage.Relation { return ex.stored(e) }

// sizeHint estimates a node's final row count via the installed Sizer (0
// without one).
func (ex *Executor) sizeHint(e *dag.Equiv) int {
	if ex.Sizer == nil {
		return 0
	}
	return int(ex.Sizer(e))
}

// stored returns the on-disk image of a node: the base relation for table
// leaves, the materialized copy otherwise.
func (ex *Executor) stored(e *dag.Equiv) *storage.Relation {
	if e.IsTable {
		return projectToP(ex.DB.MustRelation(e.Tables[0]), e.Schema, ex.Par)
	}
	r := ex.Mat[e.ID]
	if r == nil {
		panic(fmt.Sprintf("exec: e%d is not stored", e.ID))
	}
	return r
}

// Materialize computes a plan and stores the result under its node ID. For
// aggregate roots the mergeable state is captured so the result can be
// maintained incrementally.
func (ex *Executor) Materialize(p *volcano.PlanNode) *storage.Relation {
	e := p.E
	if p.Access == volcano.Compute && p.Op.Kind == dag.OpAggregate {
		return ex.storeAgg(e, p.Op, ex.runC(p.Children[0]))
	}
	ex.Mat[e.ID] = ex.Run(p).ParClone(ex.Par)
	return ex.Mat[e.ID]
}

// storeAgg folds an aggregate's input batch into mergeable state and stores
// both the state and its row image under the node ID.
func (ex *Executor) storeAgg(e *dag.Equiv, op *dag.Op, in *Batch) *storage.Relation {
	at := chainBuildAgg(in, op.GroupBy, op.Aggs, e.Schema, ex.Par, ex.sizeHint(e))
	ex.Agg[e.ID] = at
	ex.Mat[e.ID] = projectToP(at.Rows(), e.Schema, ex.Par)
	return ex.Mat[e.ID]
}
