package diff

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/volcano"
)

// DiffKey identifies one differential result: δ(equiv, update number).
type DiffKey struct {
	EquivID int
	Update  int
}

// MatState is the full materialization state: full results and indexes
// (volcano.MatSet) plus temporarily materialized differentials.
type MatState struct {
	Fulls *volcano.MatSet
	Diffs map[DiffKey]bool
}

// NewMatState returns an empty state.
func NewMatState() *MatState {
	return &MatState{Fulls: volcano.NewMatSet(), Diffs: make(map[DiffKey]bool)}
}

// Clone deep-copies the state.
func (ms *MatState) Clone() *MatState {
	out := &MatState{Fulls: ms.Fulls.Clone(), Diffs: make(map[DiffKey]bool, len(ms.Diffs))}
	for k, v := range ms.Diffs {
		out.Diffs[k] = v
	}
	return out
}

// Engine holds everything fixed across materialization choices: the DAG, the
// cost model, the update spec, and one Sizer per cardinality state — 2n+1
// "prefix" states (full results after updates 1..k) plus one delta state per
// update number (the updated relation replaced by its δ).
type Engine struct {
	D     *dag.DAG
	Model *cost.Model
	Opt   *volcano.Optimizer
	U     *UpdateSpec

	szState []*dag.Sizer // index 0..2n
	szDelta []*dag.Sizer // index 1..2n; [0] unused

	ancCache map[int][]int
	// finalRows memoizes FinalRows by equivalence-node ID; filled during
	// construction so lookups are an index, not a map probe.
	finalRows []float64
}

// Corrections supplies observed cardinalities that take precedence over the
// histogram-based estimates when pricing plans. internal/feedback.Store
// satisfies it; the interface lives here so the diff layer stays free of a
// feedback dependency.
type Corrections interface {
	// FullRows returns the observed full-result cardinality for a canonical
	// DAG key.
	FullRows(key string) (float64, bool)
	// DeltaRows returns the observed differential cardinality for a
	// canonical DAG key under an update of the given table and sign.
	DeltaRows(key, table string, insert bool) (float64, bool)
}

// NewEngine precomputes the per-state sizers. Every sizer memo and the
// ancestor cache are fully prewarmed here: after construction the engine is
// immutable, which is what lets the greedy heuristic evaluate candidate
// benefits concurrently against a shared engine.
func NewEngine(d *dag.DAG, model *cost.Model, u *UpdateSpec) *Engine {
	return NewEngineObserved(d, model, u, nil)
}

// NewEngineObserved is NewEngine with a feedback correction layer: every full
// state sizer consults corr.FullRows and every delta sizer corr.DeltaRows
// before falling back to the histogram estimate. Corrections are frozen into
// the sizer memos during prewarming, so the engine stays immutable (and the
// greedy heuristic concurrency-safe) even while the store keeps absorbing
// observations. A nil corr is exactly NewEngine — estimates byte-identical
// to the static path.
//
// Observed full cardinalities are applied to all 2n+1 prefix states: the
// states differ only by the in-flight update deltas, which are small against
// the base, and one honest observed count beats 2n+1 slightly-different
// wrong estimates.
func NewEngineObserved(d *dag.DAG, model *cost.Model, u *UpdateSpec, corr Corrections) *Engine {
	opt := volcano.New(d, model)
	en := &Engine{
		D: d, Model: model, Opt: opt, U: u,
		szState:  make([]*dag.Sizer, u.N()+1),
		szDelta:  make([]*dag.Sizer, u.N()+1),
		ancCache: make(map[int][]int),
	}
	var obsFull func(e *dag.Equiv) (float64, bool)
	if corr != nil {
		obsFull = func(e *dag.Equiv) (float64, bool) { return corr.FullRows(e.Key) }
	}
	for k := 0; k <= u.N(); k++ {
		sz := dag.NewSizer(opt.Est, u.StateRows(d.Cat, k))
		sz.Obs = obsFull
		en.szState[k] = sz
	}
	for i := 1; i <= u.N(); i++ {
		eff := u.StateRows(d.Cat, i-1)
		eff[u.Table(i)] = u.Rows(i)
		sz := dag.NewSizer(opt.Est, eff)
		if corr != nil {
			table, insert := u.Table(i), u.IsInsert(i)
			sz.Obs = func(e *dag.Equiv) (float64, bool) {
				return corr.DeltaRows(e.Key, table, insert)
			}
		}
		en.szDelta[i] = sz
	}
	en.finalRows = make([]float64, len(d.Equivs))
	final := en.FinalState()
	for _, e := range d.Equivs {
		for k := 0; k <= u.N(); k++ {
			en.szState[k].Rows(e)
		}
		for i := 1; i <= u.N(); i++ {
			en.szDelta[i].Rows(e)
		}
		en.finalRows[e.ID] = en.szState[final].Rows(e)
		en.AncestorsOf(e.ID)
	}
	return en
}

// FinalState returns the last update state number (2n).
func (en *Engine) FinalState() int { return en.U.N() }

// DeltaRows estimates |δ(e, i)| independent of materialization choices.
func (en *Engine) DeltaRows(e *dag.Equiv, i int) float64 {
	if !e.DependsOn(en.U.Table(i)) {
		return 0
	}
	return en.szDelta[i].Rows(e)
}

// FinalRows estimates the full result size of e after all updates
// (memoized at construction).
func (en *Engine) FinalRows(e *dag.Equiv) float64 {
	return en.finalRows[e.ID]
}

// AncestorsOf returns the IDs of all strict ancestors of the node (every
// node reachable via Parents), cached. Used by the incremental cost update.
func (en *Engine) AncestorsOf(id int) []int {
	if a, ok := en.ancCache[id]; ok {
		return a
	}
	seen := map[int]bool{}
	var stack []*dag.Equiv
	start := en.D.Equivs[id]
	for _, p := range start.Parents {
		stack = append(stack, p.Parent)
	}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		for _, p := range e.Parents {
			stack = append(stack, p.Parent)
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	en.ancCache[id] = out
	return out
}

// ---------------------------------------------------------------------------

// DiffPlan is the chosen plan for one differential result δ(E, Update).
type DiffPlan struct {
	E      *dag.Equiv
	Update int
	// Empty marks differentials known to be empty: the node does not depend
	// on the updated relation, or foreign-key pruning applies (paper §5.3).
	Empty bool
	// Reused marks access plans that read a temporarily materialized
	// differential instead of computing it.
	Reused bool
	Op     *dag.Op
	Algo   volcano.Algo
	// DiffChildren are the differential inputs (at most one for joins, up to
	// two for union/minus).
	DiffChildren []*DiffPlan
	// FullInputs are access plans for full inputs required alongside the
	// differentials (the paper's fullChildren), costed at the pre-update
	// state. An index nested-loop join's is the Probe leaf of its stored
	// side, carrying that side's row estimate.
	FullInputs []*volcano.PlanNode
	Rows, Cost float64
	// FKPruned records that emptiness came from a foreign-key argument.
	FKPruned bool
}

// String renders a compact description.
func (p *DiffPlan) String() string {
	switch {
	case p == nil:
		return "<nil>"
	case p.Empty && p.FKPruned:
		return fmt.Sprintf("δ%d(e%d)=∅ (fk)", p.Update, p.E.ID)
	case p.Empty:
		return fmt.Sprintf("δ%d(e%d)=∅", p.Update, p.E.ID)
	case p.Reused:
		return fmt.Sprintf("reuse δ%d(e%d)", p.Update, p.E.ID)
	default:
		return fmt.Sprintf("δ%d(e%d) via %s [%.3gs]", p.Update, p.E.ID, p.Op.Kind, p.Cost)
	}
}

// Plan lowers the differential plan to an executable volcano plan: a scan
// becomes a Delta leaf, a reuse a Shared leaf, and every computed node keeps
// its operation with the lowered differential inputs first — a join's
// children are [δ input, full input], the full input being a volcano plan
// (Update 0) or, under index nested loops, the Probe leaf of the stored side.
// An aggregate lowers over its differential input alone: its full input
// prices the recomputation that the refresh performs by other means. Empty
// differentials have no lowering; differentials through minus and dedup
// are not executable.
func (p *DiffPlan) Plan() *volcano.PlanNode {
	if p.Empty {
		panic(fmt.Sprintf("diff: %s has no plan", p))
	}
	n := &volcano.PlanNode{E: p.E, Op: p.Op, Algo: p.Algo, Update: p.Update, Rows: p.Rows, CumCost: p.Cost}
	if p.Reused {
		n.Access = volcano.Shared
		return n
	}
	switch p.Op.Kind {
	case dag.OpScan:
		n.Access = volcano.Delta
		return n
	case dag.OpMinus, dag.OpDedup:
		panic(fmt.Sprintf("diff: differential maintenance through %s is not supported; "+
			"materialize and recompute such views instead", p.Op.Kind))
	}
	n.Children = make([]*volcano.PlanNode, 0, len(p.DiffChildren)+1)
	for _, c := range p.DiffChildren {
		n.Children = append(n.Children, c.Plan())
	}
	if p.Op.Kind == dag.OpJoin {
		n.Children = append(n.Children, p.FullInputs[0])
	}
	return n
}

// ---------------------------------------------------------------------------

// Eval evaluates plan costs under one fixed MatState, memoizing full plans
// per state and differential plans per (node, update). Evals are forked by
// the greedy heuristic's incremental cost update (paper §6.2), carrying over
// memo entries whose costs provably cannot change.
type Eval struct {
	En *Engine
	MS *MatState

	// fullMemo holds one plan memo per update state, created lazily.
	fullMemo []*volcano.Memo
	// diffMemo is a flat (update, equiv) → plan cache: index
	// (update-1)*len(D.Equivs) + equivID. Slice-backed for the same reason
	// as volcano.Memo: Fork copies it per benefit evaluation.
	diffMemo []*DiffPlan
}

// NewEval creates an evaluation context for a materialization state.
func (en *Engine) NewEval(ms *MatState) *Eval {
	return &Eval{
		En:       en,
		MS:       ms,
		fullMemo: make([]*volcano.Memo, en.U.N()+1),
		diffMemo: make([]*DiffPlan, en.U.N()*len(en.D.Equivs)),
	}
}

// stateMemo returns (creating on demand) the full-plan memo for state k.
func (ev *Eval) stateMemo(k int) *volcano.Memo {
	if ev.fullMemo[k] == nil {
		ev.fullMemo[k] = ev.En.Opt.NewMemo()
	}
	return ev.fullMemo[k]
}

// FullPlanAt returns the best access plan (compute or reuse) for the full
// result of e at update state k.
func (ev *Eval) FullPlanAt(e *dag.Equiv, k int) *volcano.PlanNode {
	return ev.En.Opt.Best(e, ev.MS.Fulls, ev.En.szState[k], ev.stateMemo(k))
}

// ComputeCost is the paper's compcost(e, M): cheapest way to actually
// compute e at the final state, reusing materialized descendants but not e's
// own copy.
func (ev *Eval) ComputeCost(e *dag.Equiv) float64 {
	k := ev.En.FinalState()
	return ev.En.Opt.BestCompute(e, ev.MS.Fulls, ev.En.szState[k], ev.stateMemo(k)).CumCost
}

// ComputePlan is the plan behind ComputeCost.
func (ev *Eval) ComputePlan(e *dag.Equiv) *volcano.PlanNode {
	k := ev.En.FinalState()
	return ev.En.Opt.BestCompute(e, ev.MS.Fulls, ev.En.szState[k], ev.stateMemo(k))
}

// DiffPlan returns the cheapest plan that computes δ(e, i) — the paper's
// diffCost(e, M, i); reuse of e's own materialized differential is handled
// at consumers (DiffAccess), matching the paper's definition.
func (ev *Eval) DiffPlan(e *dag.Equiv, i int) *DiffPlan {
	idx := (i-1)*len(ev.En.D.Equivs) + e.ID
	if p := ev.diffMemo[idx]; p != nil {
		return p
	}
	var out *DiffPlan
	if !e.DependsOn(ev.En.U.Table(i)) {
		out = &DiffPlan{E: e, Update: i, Empty: true}
	} else {
		for _, op := range e.Ops {
			p := ev.diffOp(e, op, i)
			if p == nil {
				continue
			}
			if out == nil || p.Cost < out.Cost || (p.Empty && !out.Empty) {
				out = p
			}
			if p.Empty {
				out = p
				break // an empty differential is unbeatable
			}
		}
		if out == nil {
			panic(fmt.Sprintf("diff: no differential plan for %s update %d", e, i))
		}
	}
	ev.diffMemo[idx] = out
	return out
}

// DiffAccess returns the cheapest way for a consumer to obtain δ(e, i):
// the minimum of recomputation and reading a temporarily materialized copy
// (the paper's C(e, M, i)).
func (ev *Eval) DiffAccess(e *dag.Equiv, i int) *DiffPlan {
	p := ev.DiffPlan(e, i)
	if p.Empty || !ev.MS.Diffs[DiffKey{e.ID, i}] {
		return p
	}
	reuse := ev.En.Model.ReadCost(p.Rows, dag.Width(e))
	if reuse < p.Cost {
		return &DiffPlan{E: e, Update: i, Reused: true, Rows: p.Rows, Cost: reuse}
	}
	return p
}

// DiffCost is diffCost(e, M, i); zero for empty differentials.
func (ev *Eval) DiffCost(e *dag.Equiv, i int) float64 {
	return ev.DiffPlan(e, i).Cost
}

// TotalDiffCost is Σ_i C(e, M, i) over all update numbers: the cost of
// producing every differential of e during one refresh cycle, reading
// temporarily materialized copies where available.
func (ev *Eval) TotalDiffCost(e *dag.Equiv) float64 {
	total := 0.0
	for i := 1; i <= ev.En.U.N(); i++ {
		total += ev.DiffAccess(e, i).Cost
	}
	return total
}

// MergeCost prices folding all of e's differentials into its stored result
// (paper §6.1's mergeCost(n)): per-probe with an index on the stored copy,
// scan-and-rewrite without.
func (ev *Eval) MergeCost(e *dag.Equiv) float64 {
	totalDelta := 0.0
	for i := 1; i <= ev.En.U.N(); i++ {
		totalDelta += ev.DiffPlan(e, i).Rows
	}
	indexed := false
	for k := range ev.MS.Fulls.Indexes {
		if k.EquivID == e.ID {
			indexed = true
			break
		}
	}
	return ev.En.Model.MergeCost(totalDelta, ev.En.FinalRows(e), dag.Width(e), indexed)
}

// MaintCost is the paper's maintcost(n, M): total differential cost plus the
// merge into the stored result.
func (ev *Eval) MaintCost(e *dag.Equiv) float64 {
	return ev.TotalDiffCost(e) + ev.MergeCost(e)
}

// diffOp costs δ(op, i) for a single operation alternative.
func (ev *Eval) diffOp(e *dag.Equiv, op *dag.Op, i int) *DiffPlan {
	en := ev.En
	m := en.Model
	u := en.U
	T := u.Table(i)
	szd := en.szDelta[i]
	pre := i - 1
	outRows := szd.Rows(e)
	width := dag.Width(e)

	empty := func(fk bool) *DiffPlan {
		return &DiffPlan{E: e, Update: i, Empty: true, FKPruned: fk, Op: op}
	}

	switch op.Kind {
	case dag.OpScan:
		rows := u.Rows(i)
		return &DiffPlan{
			E: e, Update: i, Op: op,
			Rows: rows, Cost: m.ScanCost(rows, width),
		}

	case dag.OpSelect, dag.OpProject:
		child := op.Children[0]
		dc := ev.DiffAccess(child, i)
		if dc.Empty {
			return empty(dc.FKPruned)
		}
		local := m.SelectCost(dc.Rows)
		return &DiffPlan{
			E: e, Update: i, Op: op,
			DiffChildren: []*DiffPlan{dc},
			Rows:         outRows, Cost: local + dc.Cost,
		}

	case dag.OpJoin:
		l, r := op.Children[0], op.Children[1]
		dep, oth := l, r
		if !dep.DependsOn(T) {
			dep, oth = r, l
		}
		if oth.DependsOn(T) {
			// Both inputs depend on T ⇒ T appears twice in the expression,
			// which the DAG's no-self-join rule excludes.
			panic("diff: join with the updated relation on both sides")
		}
		if u.IsInsert(i) && ev.fkPruned(op, dep, oth, T, i) {
			return empty(true)
		}
		dc := ev.DiffAccess(dep, i)
		if dc.Empty {
			return empty(dc.FKPruned)
		}
		othRows := en.szState[pre].Rows(oth)
		othW := dag.Width(oth)

		full := ev.FullPlanAt(oth, pre)
		best := &DiffPlan{
			E: e, Update: i, Op: op, Algo: volcano.AlgoHash,
			DiffChildren: []*DiffPlan{dc},
			FullInputs:   []*volcano.PlanNode{full},
			Rows:         outRows,
			Cost: m.HashJoinCost(dc.Rows, dag.Width(dep), othRows, othW, outRows) +
				dc.Cost + full.CumCost,
		}
		// Index nested loops into the stored full input: the differential is
		// usually tiny, so probing beats scanning — this is what makes
		// indexes so valuable for maintenance (paper §7.2).
		if col := op.InnerJoinCol(oth); col != "" &&
			(oth.IsTable || ev.MS.Fulls.Has(oth)) &&
			ev.MS.Fulls.HasIndex(en.D.Cat, oth, col) {
			inl := &DiffPlan{
				E: e, Update: i, Op: op, Algo: volcano.AlgoINL,
				DiffChildren: []*DiffPlan{dc},
				FullInputs:   []*volcano.PlanNode{{E: oth, Access: volcano.Probe, Rows: othRows}},
				Rows:         outRows,
				Cost:         m.IndexJoinCost(dc.Rows, othRows, othW, outRows) + dc.Cost,
			}
			if inl.Cost < best.Cost {
				best = inl
			}
		}
		return best

	case dag.OpAggregate, dag.OpDedup:
		child := op.Children[0]
		dc := ev.DiffAccess(child, i)
		if dc.Empty {
			return empty(dc.FKPruned)
		}
		maintainable := ev.MS.Fulls.Has(e) && (u.IsInsert(i) || distributiveAggs(op))
		if maintainable {
			// Aggregate the delta input and rely on the stored result for the
			// merge (paper §3.1.2); the merge itself is priced by MergeCost.
			local := m.AggCost(dc.Rows, dag.Width(child), outRows, width)
			return &DiffPlan{
				E: e, Update: i, Op: op,
				DiffChildren: []*DiffPlan{dc},
				Rows:         outRows, Cost: local + dc.Cost,
			}
		}
		// Not materialized (or non-distributive under deletes): recompute the
		// aggregate values of affected groups from the full input — the
		// "significant extra work" of §3.1.2.
		full := ev.FullPlanAt(child, i)
		inRows := en.szState[i].Rows(child)
		local := m.AggCost(inRows, dag.Width(child), en.szState[i].Rows(e), width)
		return &DiffPlan{
			E: e, Update: i, Op: op,
			DiffChildren: []*DiffPlan{dc},
			FullInputs:   []*volcano.PlanNode{full},
			Rows:         math.Min(2*dc.Rows, en.szState[i].Rows(e)),
			Cost:         dc.Cost + full.CumCost + local,
		}

	case dag.OpUnion:
		l, r := op.Children[0], op.Children[1]
		var kids []*DiffPlan
		rows, sum := 0.0, 0.0
		for _, c := range []*dag.Equiv{l, r} {
			if !c.DependsOn(T) {
				continue
			}
			dc := ev.DiffAccess(c, i)
			if dc.Empty {
				continue
			}
			kids = append(kids, dc)
			rows += dc.Rows
			sum += dc.Cost
		}
		if len(kids) == 0 {
			return empty(false)
		}
		return &DiffPlan{
			E: e, Update: i, Op: op,
			DiffChildren: kids,
			Rows:         rows, Cost: m.UnionCost(rows) + sum,
		}

	case dag.OpMinus:
		// δ(L − R) needs both differentials and both full inputs [GL95].
		l, r := op.Children[0], op.Children[1]
		var kids []*DiffPlan
		sum, rows := 0.0, 0.0
		for _, c := range []*dag.Equiv{l, r} {
			if !c.DependsOn(T) {
				continue
			}
			dc := ev.DiffAccess(c, i)
			if dc.Empty {
				continue
			}
			kids = append(kids, dc)
			sum += dc.Cost
			rows += dc.Rows
		}
		if len(kids) == 0 {
			return empty(false)
		}
		fl := ev.FullPlanAt(l, pre)
		fr := ev.FullPlanAt(r, pre)
		local := m.MinusCost(en.szState[pre].Rows(l), en.szState[pre].Rows(r), width)
		return &DiffPlan{
			E: e, Update: i, Op: op,
			DiffChildren: kids,
			FullInputs:   []*volcano.PlanNode{fl, fr},
			Rows:         rows,
			Cost:         sum + fl.CumCost + fr.CumCost + local,
		}

	default:
		panic("diff: unexpected op kind " + op.Kind.String())
	}
}

// distributiveAggs reports whether every aggregate of the operation can be
// maintained under deletions from the old value and the delta alone.
func distributiveAggs(op *dag.Op) bool {
	if op.Kind == dag.OpDedup {
		return true // dedup maintains a count per distinct tuple
	}
	for _, a := range op.Aggs {
		if !a.Func.Distributive() {
			return false
		}
	}
	return true
}

// fkPruned implements the foreign-key emptiness argument of §5.3: the
// differential of dep ⋈ oth with respect to *inserts* on T is empty when the
// join equates a column of T with a foreign key into T from a relation U on
// the other side, provided U's own inserts have not yet been propagated
// (otherwise U could already hold rows referencing the new T tuples).
func (ev *Eval) fkPruned(op *dag.Op, dep, oth *dag.Equiv, T string, i int) bool {
	cat := ev.En.D.Cat
	for _, c := range op.Pred.Conjuncts {
		if c.Op != algebra.EQ {
			continue
		}
		lc, lok := c.L.(algebra.ColRef)
		rc, rok := c.R.(algebra.ColRef)
		if !lok || !rok {
			continue
		}
		var uCol algebra.ColRef
		switch {
		case lc.Rel == T && oth.Schema.Has(rc.QName()):
			uCol = rc
		case rc.Rel == T && oth.Schema.Has(lc.QName()):
			uCol = lc
		default:
			continue
		}
		if !cat.IsForeignKeyInto(uCol.Rel, uCol.Name, T) {
			continue
		}
		// Safe only if U's inserts have not been folded into U yet: then the
		// pre-state U cannot reference the brand-new T keys.
		insU := ev.En.U.InsertNumber(uCol.Rel)
		alreadyApplied := insU != 0 && insU < i && ev.En.U.Ins[uCol.Rel] > 0
		if !alreadyApplied {
			return true
		}
	}
	return false
}
