package exec

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/storage"
)

// Maintainer drives incremental refresh: it walks the update numbers 1..2n
// in order and, for each, computes the differentials of every stored result,
// folds the base delta into its relation, and merges the differentials —
// exactly the one-relation-one-update-type-at-a-time propagation of paper
// §3.2.2, executing the plans chosen by the diff optimizer. Within one
// update step the differential computations are scheduled as a task graph
// on a worker pool (see schedule.go); across steps the propagation order is
// preserved, since each step reads the state the previous one produced.
type Maintainer struct {
	Ex *Executor
	En *diff.Engine
	Ev *diff.Eval

	// Workers bounds the worker pool that executes each step's differential
	// task graph. 0 uses runtime.GOMAXPROCS(0); 1 forces fully sequential
	// execution on the calling goroutine. Refresh results are identical at
	// any setting: tasks read only pre-step state and published dependency
	// results, and merges run in a fixed order on the caller.
	Workers int

	// Snap, when non-nil, receives one immutable storage.Snapshot at the end
	// of every Refresh: the whole committed batch, the same unit the WAL, the
	// sharded gate and adaptation installs commit. Concurrent readers holding
	// the previous snapshot keep seeing the previous batch untorn; the writer
	// never blocks on them. The steps themselves do not consult Snap: the
	// storage merges leave every published relation untouched and derive a
	// new version for it, which the batch's later steps then write in place.
	Snap *storage.SnapshotStore

	// descCache memoizes dag.Descendants per consumer node for the task
	// graph's downward-edge validation: the DAG and the chosen plans are
	// fixed for the Maintainer's lifetime, so one traversal per consumer
	// covers every step of every refresh cycle.
	descCache map[int]map[int]bool

	// ObsDelta, when non-nil, receives every differential result computed
	// during a refresh step: the node, the updated table and sign, the diff
	// optimizer's row estimate and the actual row count. ObsFull receives,
	// once per Refresh, the post-refresh full cardinality of every maintained
	// (non-table) result against the engine's final-state estimate. The
	// feedback store hangs off both.
	ObsDelta func(e *dag.Equiv, table string, insert bool, est, act float64)
	ObsFull  func(e *dag.Equiv, est, act float64)
}

// descendants returns (computing once) the descendant ID set of a node.
func (mt *Maintainer) descendants(e *dag.Equiv) map[int]bool {
	if d, ok := mt.descCache[e.ID]; ok {
		return d
	}
	if mt.descCache == nil {
		mt.descCache = make(map[int]map[int]bool)
	}
	d := mt.En.D.Descendants(e)
	mt.descCache[e.ID] = d
	return d
}

// NewMaintainer assembles a refresh driver. The Eval's materialization state
// must agree with what has actually been materialized in the executor.
func NewMaintainer(ex *Executor, en *diff.Engine, ev *diff.Eval) *Maintainer {
	return &Maintainer{Ex: ex, En: en, Ev: ev}
}

// Rebind points the maintainer at a new engine and evaluation state — the
// adaptation swap hook. The next Refresh derives its schedule (task graphs,
// reuse edges, merge order) entirely from the new plans; the descendant
// cache is dropped because it is keyed by the previous engine's DAG. The
// executor's materialization map must already agree with the new Eval's
// state, and Workers and Snap carry over unchanged. Call only from the
// refresh writer's goroutine, between Refresh calls.
func (mt *Maintainer) Rebind(en *diff.Engine, ev *diff.Eval) {
	mt.En, mt.Ev = en, ev
	mt.descCache = nil
}

// EvalNode computes a node's result from base relations only (no reuse of
// materialized state), following the natural operation of each equivalence
// node. It is the evaluator used for recomputation fallbacks and for
// verifying maintained results.
func (ex *Executor) EvalNode(e *dag.Equiv) *storage.Relation {
	return ex.evalC(e).Materialize(e.Schema)
}

// evalC is EvalNode's walker: the whole recomputation pipeline stays
// columnar, gathering to rows only at the EvalNode sink. Joins build on the
// smaller input.
func (ex *Executor) evalC(e *dag.Equiv) *Batch {
	op := e.Ops[0]
	if op.Kind == dag.OpScan {
		return ex.scan(op.Table, e.Schema)
	}
	in := make([]*Batch, len(op.Children))
	for i, c := range op.Children {
		in[i] = ex.evalC(c)
	}
	return applyOp(op, in, buildOnLeft(in), e.Schema, ex.sizeHint(e))
}

// MaterializeNode computes e from base relations and stores it (capturing
// mergeable aggregate state when e is an aggregate). A base-table node is
// "materialized" as an alias of the base relation itself: applying the base
// deltas is its maintenance, so the Maintainer never merges into it.
func (ex *Executor) MaterializeNode(e *dag.Equiv) *storage.Relation {
	if e.IsTable {
		ex.Mat[e.ID] = ex.DB.MustRelation(e.Tables[0])
		return ex.Mat[e.ID]
	}
	if op := e.Ops[0]; op.Kind == dag.OpAggregate {
		return ex.storeAgg(e, op, ex.evalC(op.Children[0]))
	}
	// Clone defensively: EvalNode may return a relation aliasing base
	// storage (e.g. a projection that keeps the full schema), and the
	// materialized copy is mutated by merges.
	ex.Mat[e.ID] = ex.EvalNode(e).Clone()
	return ex.Mat[e.ID]
}

// ApplyLoggedDelta stages one relation's logged tuple batch into the
// database's pending δ+ (del=false) or δ− (del=true). It is the single entry
// point by which both live streaming ingestion and WAL replay feed the
// differential refresh path — recovery replays exactly the batches the live
// loop applied, through exactly the same staging, so the two commute. The
// relation must be covered by the update spec and the tuples must match its
// schema arity; violations are errors (log contents are external input).
func (mt *Maintainer) ApplyLoggedDelta(rel string, del bool, rows []algebra.Tuple) error {
	if !mt.En.U.Has(rel) {
		return fmt.Errorf("exec: relation %q is not in the update spec", rel)
	}
	r := mt.Ex.DB.Relation(rel)
	if r == nil {
		return fmt.Errorf("exec: unknown relation %q", rel)
	}
	arity := len(r.Schema())
	for _, t := range rows {
		if len(t) != arity {
			return fmt.Errorf("exec: relation %q: tuple arity %d, schema arity %d", rel, len(t), arity)
		}
	}
	for _, t := range rows {
		if del {
			mt.Ex.DB.LogDelete(rel, t)
		} else {
			mt.Ex.DB.LogInsert(rel, t)
		}
	}
	return nil
}

// Refresh propagates every pending update through all stored results and,
// with a snapshot store, publishes the outcome as one epoch.
func (mt *Maintainer) Refresh() {
	u := mt.En.U
	for i := 1; i <= u.N(); i++ {
		mt.refreshOne(i)
	}
	if mt.Snap != nil {
		// Publish the batch: readers switch to it atomically, each seeing
		// either the whole batch or none of it.
		mt.Snap.PublishState(mt.Ex.DB, mt.Ex.Mat)
	}
	if mt.ObsFull != nil {
		for _, id := range sortedIDs(mt.Ex.Mat) {
			e := mt.En.D.Equivs[id]
			if e.IsTable {
				continue
			}
			mt.ObsFull(e, mt.En.FinalRows(e), float64(mt.Ex.Mat[id].Len()))
		}
	}
}

// pendingMerge is one maintained result's phase-3 action for the step.
type pendingMerge struct {
	e    *dag.Equiv
	task *diffTask // join-style differential, or aggregate input delta
	agg  bool
	reco bool // recompute fallback
}

// refreshOne processes a single update number: phase 1 plans and executes
// the step's differential task graph against the pre-update state
// (concurrently, shared differentials computed once — see schedule.go),
// phase 2 folds the delta into the base relation, phase 3 merges the
// differentials in ascending node order (and performs recomputation
// fallbacks, which then see the post-update base state).
func (mt *Maintainer) refreshOne(i int) {
	u := mt.En.U
	T := u.Table(i)
	ex := mt.Ex

	// Planning walks the maintained results in ascending node ID so the task
	// graph's topological order — and with it the workers=1 execution order
	// and the phase-3 merge order — is deterministic.
	sr := newStepRun(mt)
	var pending []pendingMerge
	for _, id := range sortedIDs(ex.Mat) {
		e := mt.En.D.Equivs[id]
		// Base-table aliases are maintained by the phase-2 delta application.
		if e.IsTable || !e.DependsOn(T) {
			continue
		}
		p := mt.Ev.DiffPlan(e, i)
		if at := ex.Agg[id]; at != nil {
			switch {
			case p.Empty:
				// nothing to do
			case len(p.FullInputs) == 0 && len(p.DiffChildren) == 1:
				// Maintainable: absorb the input's delta into the mergeable
				// state during phase 3.
				pending = append(pending, pendingMerge{e: e, task: sr.taskFor(p.DiffChildren[0]), agg: true})
			default:
				pending = append(pending, pendingMerge{e: e, reco: true})
			}
			continue
		}
		if p.Empty {
			continue
		}
		pending = append(pending, pendingMerge{e: e, task: sr.taskFor(p)})
	}

	// Phase 1: execute the task graph. All inputs are pre-update state.
	sr.run(mt.Workers)

	// Every computed differential is a (estimate, actual) pair for the
	// feedback store — including shared intermediates, which later steps and
	// adaptation rounds re-estimate through the same delta sizers.
	if mt.ObsDelta != nil {
		insert := u.IsInsert(i)
		for _, t := range sr.order {
			res := t.result()
			mt.ObsDelta(t.plan.E, T, insert, t.plan.Rows, float64(res.Len()))
		}
	}

	// Phase 2: fold the delta into the base relation. The fold returns the
	// version it installed — a new one if the relation is held by a
	// snapshot (storage decides) — and base-table aliases follow it.
	var nb *storage.Relation
	if u.IsInsert(i) {
		nb = ex.DB.ApplyInserts(T)
	} else {
		nb = ex.DB.ApplyDeletes(T)
	}
	for id := range ex.Mat {
		if e := mt.En.D.Equivs[id]; e.IsTable && e.Tables[0] == T {
			ex.Mat[id] = nb
		}
	}

	// Phase 3: merge. The aggregate and recompute arms install fresh
	// relations; the append/subtract arms keep the version the merge returns.
	sign := int64(1)
	if !u.IsInsert(i) {
		sign = -1
	}
	for _, pm := range pending {
		switch {
		case pm.reco:
			ex.MaterializeNode(pm.e)
		case pm.agg:
			at := ex.Agg[pm.e.ID]
			if dirty := at.Absorb(pm.task.result(), sign); dirty {
				ex.MaterializeNode(pm.e)
			} else {
				ex.Mat[pm.e.ID] = projectTo(at.Rows(), pm.e.Schema)
			}
		case sign > 0:
			delta := projectTo(pm.task.result(), pm.e.Schema)
			ex.Mat[pm.e.ID] = ex.Mat[pm.e.ID].InsertAllExtend(delta)
		default:
			delta := projectTo(pm.task.result(), pm.e.Schema)
			ex.Mat[pm.e.ID] = ex.Mat[pm.e.ID].SubtractAllCompact(delta)
		}
	}
	// The step's temporarily materialized differentials die with sr here.
}

// sortedIDs returns the keys of a materialization map in ascending order.
func sortedIDs(m map[int]*storage.Relation) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
