package equivtest

// Refresh-level equivalence: a full incremental-maintenance run (task-graph
// differentials, delta folds, merges) must produce byte-identical maintained
// results at every partition and worker count. A tree-evaluating oracle
// cannot cover this harness — a maintained view's row order is the history
// of its merges, not of one evaluation — so the reference is a recording:
// testdata/refresh_row_engine.digests holds the digest of every maintained
// view after every cycle as the sequential row engine produced it at the
// last commit that had one (6aa3897, Par{}, one worker). Each configuration
// rebuilds the same deterministic database, logs the same update batches,
// refreshes, and must reproduce the recording; each view must also equal the
// oracle's from-scratch recomputation as a multiset.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/storage"
)

// refreshFixture is one independently constructed engine stack over the
// deterministic orders/customer database.
type refreshFixture struct {
	db    *storage.Database
	ex    *exec.Executor
	mt    *exec.Maintainer
	roots []*dag.Equiv // [0] join view (byte-identity), [1] aggregate view
}

func newRefreshFixture(par storage.Par, workers int) *refreshFixture {
	cat := catalog.New()
	db := storage.NewDatabase()
	customer := &catalog.Table{Name: "customer", Columns: []catalog.Column{
		{Name: "c_key", Type: catalog.Int, Width: 8},
		{Name: "c_nation", Type: catalog.Int, Width: 8},
		{Name: "c_acct", Type: catalog.Float, Width: 8},
	}, PrimaryKey: []string{"c_key"}, Stats: catalog.TableStats{Rows: 60}}
	orders := &catalog.Table{Name: "orders", Columns: []catalog.Column{
		{Name: "o_key", Type: catalog.Int, Width: 8},
		{Name: "o_cust", Type: catalog.Int, Width: 8},
		{Name: "o_price", Type: catalog.Float, Width: 8},
	}, PrimaryKey: []string{"o_key"}, Stats: catalog.TableStats{Rows: 300}}
	cat.AddTable(customer)
	cat.AddTable(orders)
	db.Create("customer", algebra.TableSchema(customer, "customer"))
	db.Create("orders", algebra.TableSchema(orders, "orders"))
	for i := int64(1); i <= 60; i++ {
		db.MustRelation("customer").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%7), algebra.NewFloat(float64(i % 30))})
	}
	for i := int64(1); i <= 300; i++ {
		db.MustRelation("orders").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewInt(1 + i%60), algebra.NewFloat(float64(i % 100))})
	}

	join := algebra.NewJoin(algebra.And(algebra.Eq("orders.o_cust", "customer.c_key")),
		algebra.NewScan(cat, "orders"), algebra.NewScan(cat, "customer"))
	sel := algebra.NewSelect(
		algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(70))), join)
	agg := algebra.NewAggregate(
		[]algebra.ColRef{algebra.C("customer.c_nation")},
		[]algebra.AggSpec{
			{Func: algebra.Sum, Col: algebra.C("orders.o_price")},
			{Func: algebra.Count},
		},
		algebra.NewJoin(algebra.And(algebra.Eq("orders.o_cust", "customer.c_key")),
			algebra.NewScan(cat, "orders"), algebra.NewScan(cat, "customer")))

	d := dag.New(cat)
	r1 := d.AddQuery("vjoin", sel)
	r2 := d.AddQuery("vagg", agg)
	u := diff.UniformPercent(cat, []string{"orders", "customer"}, 10)
	en := diff.NewEngine(d, cost.NewModel(cost.Default()), u)
	ms := diff.NewMatState()
	ex := exec.NewExecutor(db)
	ex.Par = par
	for _, r := range []*dag.Equiv{r1, r2} {
		ms.Fulls.Full[r.ID] = true
		ex.MaterializeNode(r)
	}
	mt := exec.NewMaintainer(ex, en, en.NewEval(ms))
	mt.Workers = workers
	return &refreshFixture{db: db, ex: ex, mt: mt, roots: []*dag.Equiv{r1, r2}}
}

// logUpdates stages a deterministic batch: n fresh-key inserts plus n/2
// deletes of existing rows, identical across fixtures built from the same
// key counter and seed.
func (f *refreshFixture) logUpdates(table string, n int, nextKey *int64, rng *rand.Rand) {
	rel := f.db.MustRelation(table)
	for j := 0; j < n; j++ {
		*nextKey++
		switch table {
		case "orders":
			f.db.LogInsert(table, algebra.Tuple{
				algebra.NewInt(*nextKey), algebra.NewInt(1 + *nextKey%60),
				algebra.NewFloat(float64(*nextKey % 100))})
		case "customer":
			f.db.LogInsert(table, algebra.Tuple{
				algebra.NewInt(*nextKey), algebra.NewInt(1 + *nextKey%7),
				algebra.NewFloat(float64(*nextKey % 30))})
		}
	}
	perm := rng.Perm(rel.Len())
	for j := 0; j < n/2 && j < rel.Len(); j++ {
		f.db.LogDelete(table, rel.Rows()[perm[j]].Clone())
	}
}

// digestRows is the FNV-64a digest of a relation in row order, over exactly
// what bitsEqual compares: per value the kind, the integer payload, the float
// bits and the string bytes (length-prefixed), per row its arity.
func digestRows(r *storage.Relation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, t := range r.Rows() {
		put(uint64(len(t)))
		for _, v := range t {
			put(uint64(v.Kind))
			put(uint64(v.I))
			put(math.Float64bits(v.F))
			put(uint64(len(v.S)))
			h.Write([]byte(v.S))
		}
	}
	return h.Sum64()
}

// digestSorted is the FNV-64a digest of a relation's sorted rendering — what
// EqualSorted compares — for aggregate views, whose row order follows map
// iteration.
func digestSorted(r *storage.Relation) uint64 {
	h := fnv.New64a()
	for _, s := range r.SortedStrings() {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// loadDigests reads the recording: one "cycle view digest" line per
// maintained view per cycle, keyed "cycle view".
func loadDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/refresh_row_engine.digests")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("malformed digest line %q", line)
		}
		out[fs[0]+" "+fs[1]] = fs[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRefreshReproducesRowEngineDigests(t *testing.T) {
	want := loadDigests(t)
	if len(want) != 6 {
		t.Fatalf("recording holds %d digests, want 6 (3 cycles x 2 views)", len(want))
	}
	for _, parts := range []int{1, 4, 7} {
		for _, workers := range []int{1, 4, 7} {
			var par storage.Par
			if parts > 1 {
				par = storage.Par{Partitions: parts, Workers: parts}
			}
			name := fmt.Sprintf("p%d-w%d", parts, workers)
			f := newRefreshFixture(par, workers)
			var nk int64 = 10000
			rng := rand.New(rand.NewSource(42))
			for cycle := 1; cycle <= 3; cycle++ {
				f.logUpdates("orders", 40, &nk, rng)
				f.logUpdates("customer", 10, &nk, rng)
				f.mt.Refresh()
				vjoin, vagg := f.ex.Mat[f.roots[0].ID], f.ex.Mat[f.roots[1].ID]
				got := map[string]uint64{"vjoin": digestRows(vjoin), "vagg": digestSorted(vagg)}
				for view, d := range got {
					if g, w := fmt.Sprintf("%016x", d), want[fmt.Sprintf("%d %s", cycle, view)]; g != w {
						t.Errorf("%s cycle %d: %s digest %s, row engine recorded %s", name, cycle, view, g, w)
					}
				}
				for i, view := range []*storage.Relation{vjoin, vagg} {
					if !storage.EqualMultiset(Eval(f.db, f.roots[i]), view) {
						t.Errorf("%s cycle %d: view %d diverged from the oracle's recomputation", name, cycle, i)
					}
				}
			}
		}
	}
}
