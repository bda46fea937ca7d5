// Package volcano implements the Volcano-style best-plan search over the
// AND-OR DAG (paper §5.1): a depth-first traversal computing, for every
// equivalence node, the cheapest operation alternative — extended so that
// when a node's result is materialized (set M), the minimum of its
// recomputation cost and its reuse cost is used.
//
// Physical algorithm choice happens here: every join operation is costed as
// a hash join and, when the inner input is a stored relation (a base table
// or a materialized result) with an index on the join column, as an index
// nested-loop join. Commutativity is implicit: both input orders are
// considered for the inner role, and the hash join builds on the smaller
// input. This is the "physical properties" refinement the paper describes in
// §4.3, restricted to indices (sort orders are not modeled).
package volcano

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
)

// Access describes how a plan node obtains its result.
type Access int

const (
	// Compute executes the operation.
	Compute Access = iota
	// Reuse reads a materialized copy of the result.
	Reuse
	// Probe accesses a stored relation through an index inside an index
	// nested-loop join; no separate read cost is charged.
	Probe
	// Delta reads the step's δ+ or δ− of Op.Table: the leaf of a lowered
	// differential plan (diff.DiffPlan.Plan).
	Delta
	// Shared reads a differential that another task of the same refresh
	// step computed and published.
	Shared
)

// Algo is the physical join algorithm of a Compute join node.
type Algo int

const (
	// AlgoNone marks non-join operations.
	AlgoNone Algo = iota
	// AlgoHash is an in-memory or partitioned hash join.
	AlgoHash
	// AlgoINL is an index nested-loop join; Children[1] is always the
	// probed (inner) side in the emitted plan.
	AlgoINL
	// AlgoNL is a blocked nested-loop join (fallback for non-equi joins).
	AlgoNL
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoHash:
		return "hash"
	case AlgoINL:
		return "inl"
	case AlgoNL:
		return "nl"
	default:
		return ""
	}
}

// IndexKey identifies an index candidate or choice: an index over the stored
// result of an equivalence node (base tables included) on one column.
type IndexKey struct {
	// EquivID is the equivalence node whose stored result is indexed.
	EquivID int
	// Col is the qualified name of the indexed column.
	Col string
}

// MatSet is the set M of materialized results plus chosen indexes. A nil
// *MatSet behaves as the empty set.
type MatSet struct {
	// Full maps equivalence node ID → full result materialized.
	Full map[int]bool
	// Indexes holds the chosen indexes on stored results.
	Indexes map[IndexKey]bool
}

// NewMatSet returns an empty materialized set.
func NewMatSet() *MatSet {
	return &MatSet{Full: make(map[int]bool), Indexes: make(map[IndexKey]bool)}
}

// Clone deep-copies the set.
func (m *MatSet) Clone() *MatSet {
	out := NewMatSet()
	if m == nil {
		return out
	}
	for k, v := range m.Full {
		out.Full[k] = v
	}
	for k, v := range m.Indexes {
		out.Indexes[k] = v
	}
	return out
}

// Has reports whether the node's full result is materialized.
func (m *MatSet) Has(e *dag.Equiv) bool { return m != nil && m.Full[e.ID] }

// stored reports whether the node's result exists on disk: base tables
// always do; other nodes only when materialized.
func (m *MatSet) stored(e *dag.Equiv) bool { return e.IsTable || m.Has(e) }

// HasIndex reports whether the stored result of e carries an index whose
// leading column is col. Base tables consult the catalog in addition to
// indexes chosen by the optimizer.
func (m *MatSet) HasIndex(cat *catalog.Catalog, e *dag.Equiv, col string) bool {
	if m != nil && m.Indexes[IndexKey{EquivID: e.ID, Col: col}] {
		return true
	}
	if e.IsTable {
		i := strings.IndexByte(col, '.')
		bare := col
		if i >= 0 {
			bare = col[i+1:]
		}
		return cat.HasIndex(e.Tables[0], bare)
	}
	return false
}

// PlanNode is one node of an executable physical plan.
type PlanNode struct {
	// E is the equivalence node this plan node produces.
	E *dag.Equiv
	// Access says how the result is obtained (Compute, Reuse, Probe).
	Access Access
	// Op is the computed operation; nil for Reuse/Probe.
	Op *dag.Op
	// Algo is the physical join algorithm of a Compute join.
	Algo Algo
	// Children are the input plans (empty for leaves).
	Children []*PlanNode
	// Update is the update number of a differential node (δ(E, Update)) and
	// 0 for a full result.
	Update int
	// Rows is the estimated result cardinality.
	Rows float64
	// CumCost is the total estimated cost of producing this node's result
	// (local cost plus charged children).
	CumCost float64
}

// String renders the plan tree on one line.
func (p *PlanNode) String() string {
	var b strings.Builder
	p.render(&b)
	return b.String()
}

func (p *PlanNode) render(b *strings.Builder) {
	switch p.Access {
	case Reuse:
		fmt.Fprintf(b, "reuse(e%d)", p.E.ID)
		return
	case Probe:
		fmt.Fprintf(b, "probe(e%d)", p.E.ID)
		return
	case Delta:
		fmt.Fprintf(b, "δ%d(%s)", p.Update, p.Op.Table)
		return
	case Shared:
		fmt.Fprintf(b, "shared δ%d(e%d)", p.Update, p.E.ID)
		return
	}
	switch p.Op.Kind {
	case dag.OpScan:
		b.WriteString(p.Op.Table)
	case dag.OpJoin:
		b.WriteByte('(')
		p.Children[0].render(b)
		fmt.Fprintf(b, " %s⋈[%s] ", p.Algo, p.Op.Pred.String())
		p.Children[1].render(b)
		b.WriteByte(')')
	default:
		b.WriteString(p.Op.Kind.String())
		if p.Op.Kind == dag.OpSelect {
			fmt.Fprintf(b, "[%s]", p.Op.Pred.String())
		}
		b.WriteByte('(')
		for i, c := range p.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.render(b)
		}
		b.WriteByte(')')
	}
}

// Optimizer finds best plans over one DAG under one cost model.
type Optimizer struct {
	// Dag is the AND-OR DAG searched.
	Dag *dag.DAG
	// Model prices the physical operations.
	Model *cost.Model
	// Est supplies selectivity and cardinality estimates.
	Est *cost.Estimator
}

// New builds an optimizer.
func New(d *dag.DAG, m *cost.Model) *Optimizer {
	return &Optimizer{Dag: d, Model: m, Est: cost.NewEstimator(d.Cat)}
}

// Memo caches the best plan per equivalence node within one (ms, sz)
// configuration, indexed by node ID. It is slice-backed so lookups, clones
// and invalidations are array operations: the greedy heuristic forks one
// memo per benefit evaluation, thousands per run, and the former
// map-backed representation dominated optimization-time profiles.
type Memo struct {
	plans []*PlanNode
	seen  []bool
}

// NewMemo returns an empty memo sized for the optimizer's DAG.
func (o *Optimizer) NewMemo() *Memo {
	n := len(o.Dag.Equivs)
	return &Memo{plans: make([]*PlanNode, n), seen: make([]bool, n)}
}

// Get returns the cached plan for a node and whether one is present.
func (m *Memo) Get(id int) (*PlanNode, bool) { return m.plans[id], m.seen[id] }

// Put caches the plan for a node.
func (m *Memo) Put(id int, p *PlanNode) { m.plans[id] = p; m.seen[id] = true }

// Delete invalidates one node's entry.
func (m *Memo) Delete(id int) { m.plans[id] = nil; m.seen[id] = false }

// Clone copies the memo; plan nodes are shared (they are immutable).
func (m *Memo) Clone() *Memo {
	out := &Memo{plans: make([]*PlanNode, len(m.plans)), seen: make([]bool, len(m.seen))}
	copy(out.plans, m.plans)
	copy(out.seen, m.seen)
	return out
}

// Best returns the cheapest plan for e given materialized set ms, under the
// cardinality state of sz. The memo must be reused only within one
// (ms, sz) configuration.
func (o *Optimizer) Best(e *dag.Equiv, ms *MatSet, sz *dag.Sizer, memo *Memo) *PlanNode {
	if p, ok := memo.Get(e.ID); ok {
		return p
	}
	// Guard against re-entrancy on malformed (cyclic) DAGs.
	memo.Put(e.ID, nil)

	var best *PlanNode
	for _, op := range e.Ops {
		p := o.planOp(e, op, ms, sz, memo)
		if p != nil && (best == nil || p.CumCost < best.CumCost) {
			best = p
		}
	}
	if best == nil {
		panic(fmt.Sprintf("volcano: no plan for %s", e))
	}
	if ms.Has(e) {
		reuse := &PlanNode{
			E: e, Access: Reuse,
			Rows:    sz.Rows(e),
			CumCost: o.Model.ReadCost(sz.Rows(e), dag.Width(e)),
		}
		if reuse.CumCost < best.CumCost {
			best = reuse
		}
	}
	memo.Put(e.ID, best)
	return best
}

// planOp costs one operation alternative.
func (o *Optimizer) planOp(e *dag.Equiv, op *dag.Op, ms *MatSet, sz *dag.Sizer, memo *Memo) *PlanNode {
	outRows := sz.Rows(e)
	switch op.Kind {
	case dag.OpScan:
		return &PlanNode{
			E: e, Op: op, Rows: outRows,
			CumCost: o.Model.ScanCost(outRows, dag.Width(e)),
		}
	case dag.OpJoin:
		return o.planJoin(e, op, ms, sz, memo)
	default:
		children := make([]*PlanNode, len(op.Children))
		sum := 0.0
		for i, c := range op.Children {
			children[i] = o.Best(c, ms, sz, memo)
			if children[i] == nil {
				return nil
			}
			sum += children[i].CumCost
		}
		local := o.localUnary(op, sz, outRows)
		return &PlanNode{
			E: e, Op: op, Children: children,
			Rows: outRows, CumCost: local + sum,
		}
	}
}

// localUnary is the local cost of non-join, non-scan operations.
func (o *Optimizer) localUnary(op *dag.Op, sz *dag.Sizer, outRows float64) float64 {
	m := o.Model
	switch op.Kind {
	case dag.OpSelect:
		return m.SelectCost(sz.Rows(op.Children[0]))
	case dag.OpProject:
		return m.ProjectCost(sz.Rows(op.Children[0]))
	case dag.OpAggregate:
		in := op.Children[0]
		return m.AggCost(sz.Rows(in), dag.Width(in), outRows, dag.Width(op.Parent))
	case dag.OpUnion:
		return m.UnionCost(outRows)
	case dag.OpMinus:
		l, r := op.Children[0], op.Children[1]
		return m.MinusCost(sz.Rows(l), sz.Rows(r), dag.Width(l))
	case dag.OpDedup:
		in := op.Children[0]
		return m.DedupCost(sz.Rows(in), dag.Width(in), outRows)
	default:
		panic("volcano: unexpected op kind " + op.Kind.String())
	}
}

// planJoin costs every physical variant of a join operation and returns the
// cheapest. Variants: hash join (children charged normally) and, for each
// side that is a stored relation with an index on its join column, an index
// nested-loop join whose inner side is probed for free (the probe I/O is
// part of the operator's local cost).
func (o *Optimizer) planJoin(e *dag.Equiv, op *dag.Op, ms *MatSet, sz *dag.Sizer, memo *Memo) *PlanNode {
	m := o.Model
	l, r := op.Children[0], op.Children[1]
	outRows := sz.Rows(e)
	lRows, rRows := sz.Rows(l), sz.Rows(r)
	lW, rW := dag.Width(l), dag.Width(r)

	hasEqui := false
	for _, c := range op.Pred.Conjuncts {
		_, lok := c.L.(algebra.ColRef)
		_, rok := c.R.(algebra.ColRef)
		if c.Op == algebra.EQ && lok && rok {
			hasEqui = true
			break
		}
	}

	var best *PlanNode
	consider := func(p *PlanNode) {
		if p != nil && (best == nil || p.CumCost < best.CumCost) {
			best = p
		}
	}

	lp := o.Best(l, ms, sz, memo)
	rp := o.Best(r, ms, sz, memo)
	if lp == nil || rp == nil {
		return nil
	}

	if hasEqui {
		consider(&PlanNode{
			E: e, Op: op, Algo: AlgoHash,
			Children: []*PlanNode{lp, rp},
			Rows:     outRows,
			CumCost:  m.HashJoinCost(lRows, lW, rRows, rW, outRows) + lp.CumCost + rp.CumCost,
		})
	} else {
		consider(&PlanNode{
			E: e, Op: op, Algo: AlgoNL,
			Children: []*PlanNode{lp, rp},
			Rows:     outRows,
			CumCost:  m.NLJoinCost(lRows, lW, rRows, rW, outRows) + lp.CumCost + rp.CumCost,
		})
	}

	// Index nested loops: outer computes, inner is probed in place.
	tryINL := func(outer, inner *dag.Equiv, outerPlan *PlanNode, innerRows float64, innerW int, outerRows float64) {
		if !ms.stored(inner) {
			return
		}
		col := op.InnerJoinCol(inner)
		if col == "" || !ms.HasIndex(o.Dag.Cat, inner, col) {
			return
		}
		probe := &PlanNode{E: inner, Access: Probe, Rows: innerRows}
		consider(&PlanNode{
			E: e, Op: op, Algo: AlgoINL,
			Children: []*PlanNode{outerPlan, probe},
			Rows:     outRows,
			CumCost:  m.IndexJoinCost(outerRows, innerRows, innerW, outRows) + outerPlan.CumCost,
		})
	}
	if hasEqui {
		tryINL(l, r, lp, rRows, rW, lRows)
		tryINL(r, l, rp, lRows, lW, rRows)
	}
	return best
}

// Cost returns just the cumulative cost of the best plan for e.
func (o *Optimizer) Cost(e *dag.Equiv, ms *MatSet, sz *dag.Sizer, memo *Memo) float64 {
	return o.Best(e, ms, sz, memo).CumCost
}

// BestCompute returns the cheapest plan that actually computes e — the
// paper's compcost(e, M): descendants may still be reused from M, but e's
// own materialized copy (if any) is not. This is the cost that competes with
// incremental maintenance when deciding how to refresh a materialized result
// (paper §6.1), and the cost charged when temporarily materializing a shared
// subexpression.
func (o *Optimizer) BestCompute(e *dag.Equiv, ms *MatSet, sz *dag.Sizer, memo *Memo) *PlanNode {
	var best *PlanNode
	for _, op := range e.Ops {
		p := o.planOp(e, op, ms, sz, memo)
		if p != nil && (best == nil || p.CumCost < best.CumCost) {
			best = p
		}
	}
	if best == nil {
		panic(fmt.Sprintf("volcano: no compute plan for %s", e))
	}
	return best
}
