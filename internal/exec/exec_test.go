package exec

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// fixture builds a small orders/customer/nation database with real rows.
type fixture struct {
	cat *catalog.Catalog
	db  *storage.Database
	rng *rand.Rand
}

func newFixture(seed int64) *fixture {
	f := &fixture{cat: catalog.New(), db: storage.NewDatabase(), rng: rand.New(rand.NewSource(seed))}
	f.addTable("nation", []catalog.Column{
		{Name: "n_key", Type: catalog.Int, Width: 8},
		{Name: "n_region", Type: catalog.Int, Width: 8},
	}, "n_key", map[string]catalog.ColumnStats{
		"n_key": {Distinct: 5, Min: 1, Max: 5}, "n_region": {Distinct: 2, Min: 1, Max: 2},
	}, 5)
	f.addTable("customer", []catalog.Column{
		{Name: "c_key", Type: catalog.Int, Width: 8},
		{Name: "c_nation", Type: catalog.Int, Width: 8},
		{Name: "c_acct", Type: catalog.Float, Width: 8},
	}, "c_key", map[string]catalog.ColumnStats{
		"c_key": {Distinct: 50, Min: 1, Max: 50}, "c_nation": {Distinct: 5, Min: 1, Max: 5},
		"c_acct": {Distinct: 20, Min: 0, Max: 100},
	}, 50)
	f.addTable("orders", []catalog.Column{
		{Name: "o_key", Type: catalog.Int, Width: 8},
		{Name: "o_cust", Type: catalog.Int, Width: 8},
		{Name: "o_price", Type: catalog.Float, Width: 8},
	}, "o_key", map[string]catalog.ColumnStats{
		"o_key": {Distinct: 200, Min: 1, Max: 400}, "o_cust": {Distinct: 50, Min: 1, Max: 50},
		"o_price": {Distinct: 50, Min: 0, Max: 100},
	}, 200)
	for _, tb := range f.cat.Tables() {
		f.cat.AddIndex(catalog.Index{Name: "pk_" + tb, Table: tb,
			Columns: f.cat.MustTable(tb).PrimaryKey, Unique: true})
	}

	// Populate. Prices are whole numbers so incremental float sums are exact.
	for i := int64(1); i <= 5; i++ {
		f.db.MustRelation("nation").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%2)})
	}
	for i := int64(1); i <= 50; i++ {
		f.db.MustRelation("customer").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%5), algebra.NewFloat(float64(i % 20))})
	}
	for i := int64(1); i <= 200; i++ {
		f.db.MustRelation("orders").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%50), algebra.NewFloat(float64(i % 100))})
	}
	return f
}

func (f *fixture) addTable(name string, cols []catalog.Column, pk string,
	stats map[string]catalog.ColumnStats, rows int64) {
	t := &catalog.Table{Name: name, Columns: cols, PrimaryKey: []string{pk},
		Stats: catalog.TableStats{Rows: rows, Columns: stats}}
	f.cat.AddTable(t)
	f.db.Create(name, algebra.TableSchema(t, name))
}

// logUpdates records random inserts and deletes on a table: n inserts with
// fresh keys, n/2 deletes of existing rows.
func (f *fixture) logUpdates(table string, n int, nextKey *int64) {
	rel := f.db.MustRelation(table)
	for j := 0; j < n; j++ {
		*nextKey++
		switch table {
		case "orders":
			f.db.LogInsert(table, algebra.Tuple{
				algebra.NewInt(*nextKey), algebra.NewInt(1 + *nextKey%50),
				algebra.NewFloat(float64(*nextKey % 100))})
		case "customer":
			f.db.LogInsert(table, algebra.Tuple{
				algebra.NewInt(*nextKey), algebra.NewInt(1 + *nextKey%5),
				algebra.NewFloat(float64(*nextKey % 20))})
		}
	}
	// Deletes sample distinct existing rows: a delta relation must not delete
	// the same tuple twice.
	perm := f.rng.Perm(rel.Len())
	for j := 0; j < n/2 && j < rel.Len(); j++ {
		f.db.LogDelete(table, rel.Rows()[perm[j]].Clone())
	}
}

func ordersCustomer(cat *catalog.Catalog) algebra.Node {
	return algebra.NewJoin(algebra.And(algebra.Eq("orders.o_cust", "customer.c_key")),
		algebra.NewScan(cat, "orders"), algebra.NewScan(cat, "customer"))
}

// harness wires a view set into engine, executor, maintainer.
type harness struct {
	f     *fixture
	d     *dag.DAG
	en    *diff.Engine
	ev    *diff.Eval
	ex    *Executor
	mt    *Maintainer
	roots []*dag.Equiv
}

func newHarness(t *testing.T, f *fixture, updRels []string, pct float64,
	extraMat []int, views ...algebra.Node) *harness {
	t.Helper()
	d := dag.New(f.cat)
	var roots []*dag.Equiv
	for i, v := range views {
		roots = append(roots, d.AddQuery("v"+string(rune('0'+i)), v))
	}
	u := diff.UniformPercent(f.cat, updRels, pct)
	en := diff.NewEngine(d, cost.NewModel(cost.Default()), u)
	ms := diff.NewMatState()
	ex := NewExecutor(f.db)
	for _, r := range roots {
		ms.Fulls.Full[r.ID] = true
		ex.MaterializeNode(r)
	}
	for _, id := range extraMat {
		ms.Fulls.Full[id] = true
		ex.MaterializeNode(d.Equivs[id])
	}
	ev := en.NewEval(ms)
	return &harness{f: f, d: d, en: en, ev: ev, ex: ex, mt: NewMaintainer(ex, en, ev), roots: roots}
}

// checkViews verifies every maintained root equals recomputation.
func (h *harness) checkViews(t *testing.T) {
	t.Helper()
	for i, r := range h.roots {
		got := h.ex.Mat[r.ID]
		want := h.ex.EvalNode(r)
		if !storage.EqualMultiset(got, want) {
			t.Errorf("view %d diverged: maintained %d rows, recomputed %d rows",
				i, got.Len(), want.Len())
		}
	}
}

func TestRunSimpleJoinPlan(t *testing.T) {
	f := newFixture(1)
	d := dag.New(f.cat)
	root := d.AddQuery("v", ordersCustomer(f.cat))
	opt := volcano.New(d, cost.NewModel(cost.Default()))
	sz := dag.NewSizer(opt.Est, nil)
	p := opt.Best(root, volcano.NewMatSet(), sz, opt.NewMemo())
	ex := NewExecutor(f.db)
	got := ex.Run(p)
	if got.Len() != 200 {
		t.Errorf("every order has a customer: want 200 rows, got %d", got.Len())
	}
	want := ex.EvalNode(root)
	if !storage.EqualMultiset(got, want) {
		t.Errorf("optimized plan and reference evaluation disagree")
	}
}

func TestMaintainJoinViewInsertsAndDeletes(t *testing.T) {
	f := newFixture(2)
	h := newHarness(t, f, []string{"orders", "customer"}, 10, nil, ordersCustomer(f.cat))
	var nk int64 = 1000
	f.logUpdates("orders", 20, &nk)
	f.logUpdates("customer", 5, &nk)
	h.mt.Refresh()
	h.checkViews(t)
}

func TestMaintainSelectJoinView(t *testing.T) {
	f := newFixture(3)
	v := algebra.NewSelect(
		algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(50))),
		ordersCustomer(f.cat).(*algebra.Join))
	h := newHarness(t, f, []string{"orders"}, 20, nil, v)
	var nk int64 = 1000
	f.logUpdates("orders", 40, &nk)
	h.mt.Refresh()
	h.checkViews(t)
}

func TestMaintainAggregateViewSumCountAvg(t *testing.T) {
	f := newFixture(4)
	v := algebra.NewAggregate(
		[]algebra.ColRef{algebra.C("customer.c_nation")},
		[]algebra.AggSpec{
			{Func: algebra.Sum, Col: algebra.C("orders.o_price")},
			{Func: algebra.Count},
			{Func: algebra.Avg, Col: algebra.C("orders.o_price")},
		},
		ordersCustomer(f.cat).(*algebra.Join))
	h := newHarness(t, f, []string{"orders", "customer"}, 15, nil, v)
	var nk int64 = 1000
	f.logUpdates("orders", 30, &nk)
	f.logUpdates("customer", 8, &nk)
	h.mt.Refresh()
	h.checkViews(t)
}

func TestMaintainMinMaxWithDeletesFallsBack(t *testing.T) {
	f := newFixture(5)
	v := algebra.NewAggregate(
		[]algebra.ColRef{algebra.C("customer.c_nation")},
		[]algebra.AggSpec{{Func: algebra.Max, Col: algebra.C("orders.o_price")},
			{Func: algebra.Min, Col: algebra.C("orders.o_price")}},
		ordersCustomer(f.cat).(*algebra.Join))
	h := newHarness(t, f, []string{"orders"}, 30, nil, v)
	var nk int64 = 1000
	f.logUpdates("orders", 30, &nk)
	h.mt.Refresh()
	h.checkViews(t)
}

func TestMaintainTwoViewsSharedSubexpression(t *testing.T) {
	f := newFixture(6)
	vJoin := ordersCustomer(f.cat)
	vAgg := algebra.NewAggregate(
		[]algebra.ColRef{algebra.C("customer.c_nation")},
		[]algebra.AggSpec{{Func: algebra.Count}},
		ordersCustomer(f.cat).(*algebra.Join))
	h := newHarness(t, f, []string{"orders", "customer"}, 10, nil, vJoin, vAgg)
	var nk int64 = 1000
	f.logUpdates("orders", 25, &nk)
	f.logUpdates("customer", 6, &nk)
	h.mt.Refresh()
	h.checkViews(t)
}

func TestMaintainWithExtraMaterializedSubexpression(t *testing.T) {
	f := newFixture(7)
	threeWay := algebra.NewJoin(algebra.And(algebra.Eq("customer.c_nation", "nation.n_key")),
		ordersCustomer(f.cat).(*algebra.Join), algebra.NewScan(f.cat, "nation"))
	d := dag.New(f.cat)
	root := d.AddQuery("v", threeWay)
	// Find orders⋈customer and materialize it permanently alongside the view.
	var oc *dag.Equiv
	for _, e := range d.Equivs {
		if len(e.Tables) == 2 && e.DependsOn("orders") && e.DependsOn("customer") {
			oc = e
		}
	}
	u := diff.UniformPercent(f.cat, []string{"orders", "customer"}, 10)
	en := diff.NewEngine(d, cost.NewModel(cost.Default()), u)
	ms := diff.NewMatState()
	ms.Fulls.Full[root.ID] = true
	ms.Fulls.Full[oc.ID] = true
	ex := NewExecutor(f.db)
	ex.MaterializeNode(root)
	ex.MaterializeNode(oc)
	ev := en.NewEval(ms)
	mt := NewMaintainer(ex, en, ev)

	var nk int64 = 1000
	f.logUpdates("orders", 20, &nk)
	f.logUpdates("customer", 5, &nk)
	mt.Refresh()

	if !storage.EqualMultiset(ex.Mat[root.ID], ex.EvalNode(root)) {
		t.Errorf("view diverged")
	}
	if !storage.EqualMultiset(ex.Mat[oc.ID], ex.EvalNode(oc)) {
		t.Errorf("permanently materialized subexpression diverged")
	}
}

func TestMaintainWithTemporaryDifferential(t *testing.T) {
	f := newFixture(8)
	vJoin := ordersCustomer(f.cat)
	vSel := algebra.NewSelect(
		algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(50))),
		ordersCustomer(f.cat).(*algebra.Join))
	d := dag.New(f.cat)
	r1 := d.AddQuery("v1", vJoin)
	r2 := d.AddQuery("v2", vSel)
	var oc *dag.Equiv
	for _, e := range d.Equivs {
		if len(e.Tables) == 2 && e.DependsOn("orders") && e.DependsOn("customer") &&
			len(e.Ops) > 0 && e.Ops[0].Kind == dag.OpJoin {
			oc = e
		}
	}
	u := diff.UniformPercent(f.cat, []string{"orders"}, 10)
	en := diff.NewEngine(d, cost.NewModel(cost.Default()), u)
	ms := diff.NewMatState()
	ms.Fulls.Full[r1.ID] = true
	ms.Fulls.Full[r2.ID] = true
	// Temporarily materialize δ+orders(orders⋈customer): shared by both views.
	ms.Diffs[diff.DiffKey{EquivID: oc.ID, Update: 1}] = true
	ex := NewExecutor(f.db)
	ex.MaterializeNode(r1)
	ex.MaterializeNode(r2)
	ev := en.NewEval(ms)
	mt := NewMaintainer(ex, en, ev)

	var nk int64 = 1000
	f.logUpdates("orders", 30, &nk)
	mt.Refresh()

	if !storage.EqualMultiset(ex.Mat[r1.ID], ex.EvalNode(r1)) {
		t.Errorf("v1 diverged")
	}
	if !storage.EqualMultiset(ex.Mat[r2.ID], ex.EvalNode(r2)) {
		t.Errorf("v2 diverged")
	}
}

func TestRepeatedRefreshCycles(t *testing.T) {
	f := newFixture(9)
	h := newHarness(t, f, []string{"orders", "customer"}, 10, nil, ordersCustomer(f.cat))
	var nk int64 = 1000
	for cycle := 0; cycle < 5; cycle++ {
		f.logUpdates("orders", 10, &nk)
		f.logUpdates("customer", 4, &nk)
		h.mt.Refresh()
		h.checkViews(t)
	}
}

func TestRefreshWithNoPendingUpdates(t *testing.T) {
	f := newFixture(10)
	h := newHarness(t, f, []string{"orders"}, 10, nil, ordersCustomer(f.cat))
	h.mt.Refresh() // no deltas logged
	h.checkViews(t)
}

func TestAggTableAbsorbInverse(t *testing.T) {
	// Property: absorbing a batch then absorbing it with opposite sign
	// restores the original state (for distributive aggregates).
	f := newFixture(11)
	in := f.db.MustRelation("orders")
	sch := in.Schema()
	at := NewAggTable(sch,
		[]algebra.ColRef{algebra.C("orders.o_cust")},
		[]algebra.AggSpec{{Func: algebra.Sum, Col: algebra.C("orders.o_price")}, {Func: algebra.Count}},
		algebra.Schema{sch[1], {Rel: "agg", Name: "sum_o_price", Type: catalog.Float, Width: 8},
			{Rel: "agg", Name: "count", Type: catalog.Int, Width: 8}})
	at.Absorb(in, 1)
	before := at.Rows()

	batch := storage.NewRelation(sch)
	for i := 0; i < 20; i++ {
		batch.Insert(in.Rows()[i])
	}
	at.Absorb(batch, 1)
	at.Absorb(batch, -1)
	after := at.Rows()
	if !storage.EqualMultiset(before, after) {
		t.Errorf("absorb/unabsorb should round-trip")
	}
}

func TestProjectToReordersColumns(t *testing.T) {
	f := newFixture(12)
	rel := f.db.MustRelation("orders")
	target := algebra.Schema{rel.Schema()[2], rel.Schema()[0]}
	got := projectToP(rel, target, storage.Par{})
	if got.Len() != rel.Len() || len(got.Schema()) != 2 {
		t.Fatalf("projection shape wrong")
	}
	if got.Rows()[0][1].I != rel.Rows()[0][0].I {
		t.Errorf("column reorder broken")
	}
}
