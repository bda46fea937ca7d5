package exec

import (
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/volcano"
)

// TestRefreshStepObservesFullInputsOnly: differential plans run through the
// same walker as queries, but a refresh step reports to Executor.Obs only
// the full-result nodes it executes — once for every node of every executed
// hash join's full-input plan, never for a differential node — while each
// task's differential reaches Maintainer.ObsDelta exactly once, at its root.
func TestRefreshStepObservesFullInputsOnly(t *testing.T) {
	f := newFixture(12)
	sel := algebra.NewSelect(
		algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(50))),
		ordersCustomer(f.cat).(*algebra.Join))
	h := newHarness(t, f, []string{"customer"}, 10, nil, sel, ordersCustomer(f.cat))
	// Every customer has orders on both sides of the price cut, so deleting
	// five makes every differential of the step nonempty and every join run
	// its full side.
	for _, row := range f.db.MustRelation("customer").Rows()[:5] {
		f.db.LogDelete("customer", row.Clone())
	}
	const step = 2 // the delete on customer

	type obs struct {
		id  int
		est float64
	}
	want := map[obs]int{}
	var full func(n *volcano.PlanNode)
	full = func(n *volcano.PlanNode) {
		if n.Access == volcano.Probe {
			return // read in place by its join, never resolved on its own
		}
		want[obs{n.E.ID, n.Rows}]++
		for _, c := range n.Children {
			full(c)
		}
	}
	var differential func(p *diff.DiffPlan)
	differential = func(p *diff.DiffPlan) {
		for _, c := range p.DiffChildren {
			differential(c)
		}
		if p.Op.Kind == dag.OpJoin && p.Algo == volcano.AlgoHash {
			full(p.FullInputs[0])
		}
	}
	tasks := 0
	for _, id := range sortedIDs(h.ex.Mat) {
		e := h.d.Equivs[id]
		if p := h.ev.DiffPlan(e, step); !e.IsTable && !p.Empty {
			tasks++
			differential(p)
		}
	}
	if tasks < 2 || len(want) == 0 {
		t.Fatalf("fixture has %d tasks and %d full-input nodes; the test needs both", tasks, len(want))
	}

	var mu sync.Mutex
	got := map[obs]int{}
	h.ex.Obs = func(e *dag.Equiv, est, act float64) {
		mu.Lock()
		got[obs{e.ID, est}]++
		mu.Unlock()
	}
	deltas := 0
	h.mt.ObsDelta = func(e *dag.Equiv, table string, insert bool, est, act float64) { deltas++ }
	h.mt.refreshOne(step, new([4]int64))

	for k, n := range want {
		if got[k] != n {
			t.Errorf("full-input node e%d (est %g) observed %d times, want %d", k.id, k.est, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("e%d (est %g) observed %d times but is no full-input node", k.id, k.est, n)
		}
	}
	if deltas != tasks {
		t.Errorf("ObsDelta fired %d times for %d tasks", deltas, tasks)
	}
	h.checkViews(t)
}

// TestRunSkipsSecondInputOfEmptyJoin: a join whose first input is empty
// produces nothing whatever its second input holds, so Run never resolves
// the second input — Obs hears from the first input and the join, never from
// the second.
func TestRunSkipsSecondInputOfEmptyJoin(t *testing.T) {
	f := newFixture(13)
	d := dag.New(f.cat)
	none := algebra.NewSelect(
		algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(-1))),
		algebra.NewScan(f.cat, "orders"))
	root := d.AddQuery("v", algebra.NewJoin(algebra.And(algebra.Eq("orders.o_cust", "customer.c_key")),
		none, algebra.NewScan(f.cat, "customer")))
	var orders, customer, selE *dag.Equiv
	for _, e := range d.Equivs {
		switch {
		case e.IsTable && e.Tables[0] == "orders":
			orders = e
		case e.IsTable && e.Tables[0] == "customer":
			customer = e
		case !e.IsTable && e.Ops[0].Kind == dag.OpSelect:
			selE = e
		}
	}
	scan := func(e *dag.Equiv) *volcano.PlanNode {
		return &volcano.PlanNode{E: e, Op: e.Ops[0], Rows: float64(f.db.MustRelation(e.Tables[0]).Len())}
	}
	p := &volcano.PlanNode{
		E: root, Op: root.Ops[0], Algo: volcano.AlgoHash, Rows: 1,
		Children: []*volcano.PlanNode{
			{E: selE, Op: selE.Ops[0], Rows: 1, Children: []*volcano.PlanNode{scan(orders)}},
			scan(customer),
		},
	}
	ex := NewExecutor(f.db)
	resolved := map[int]bool{}
	ex.Obs = func(e *dag.Equiv, est, act float64) { resolved[e.ID] = true }
	if got := ex.Run(p); got.Len() != 0 {
		t.Fatalf("join with an empty first input returned %d rows", got.Len())
	}
	if !resolved[selE.ID] || !resolved[root.ID] {
		t.Fatalf("first input and join must be observed: %v", resolved)
	}
	if resolved[customer.ID] {
		t.Errorf("the second input was resolved although the first is empty")
	}
}
