package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// Serving test queries over the TPC-D schema: the viewdef subset, chosen so
// some unify exactly with maintained views, some with shared subexpressions,
// and some with nothing materialized at all.
var serveQueries = []string{
	// The lineitem⋈orders backbone shared by every benchmark view.
	`SELECT * FROM lineitem, orders
	 WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < 255`,
	// Exactly the rev_by_custnation view of tpcd.ViewSet5(cat, true).
	`SELECT customer.c_nationkey, SUM(lineitem.l_extendedprice) AS revenue, COUNT(*)
	 FROM lineitem, orders, customer
	 WHERE lineitem.l_orderkey = orders.o_orderkey
	   AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255
	 GROUP BY customer.c_nationkey`,
	// Touches nothing the maintenance plan stores.
	`SELECT supplier.s_nationkey, COUNT(*) FROM supplier GROUP BY supplier.s_nationkey`,
	`SELECT * FROM customer WHERE customer.c_mktsegment = 1`,
}

// updatedRels keeps refresh cycles short: 3 relations = 6 update steps.
var updatedRels = []string{"customer", "orders", "lineitem"}

// buildServingRuntime assembles the five-aggregate-view workload on
// generated data and returns its runtime (serving not yet enabled).
func buildServingRuntime(t testing.TB, sf, pct float64) *Runtime {
	cat := tpcd.NewCatalog(sf, true)
	db := tpcd.Generate(cat, sf, 7)
	sys := NewSystem(cat, Options{})
	for _, v := range tpcd.ViewSet5(cat, true) {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			t.Fatal(err)
		}
	}
	u := diff.UniformPercent(cat, updatedRels, pct)
	plan := sys.OptimizeGreedy(u, greedy.DefaultConfig())
	return plan.NewRuntime(db)
}

// recomputeAt evaluates a query definition from the base relations of one
// snapshot — the reference answer for that step boundary.
func recomputeAt(cd *dag.DAG, root *dag.Equiv, snap *storage.Snapshot) *storage.Relation {
	return exec.NewExecutor(snap.Database()).EvalNode(root)
}

func TestQueryMatchesRecomputationAcrossRefresh(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 5)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	cat := rt.Plan.System.Cat

	cd := dag.New(cat)
	check := func(stage string) {
		for _, sql := range serveQueries {
			res, err := rt.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			root := cd.InsertExpr(viewdef.MustParse(cat, sql))
			want := recomputeAt(cd, root, rt.Snapshots().At(res.Epoch))
			if !storage.EqualMultiset(res.Rows, want) {
				t.Errorf("%s: query %q diverged at epoch %d: got %d rows, want %d",
					stage, sql, res.Epoch, res.Rows.Len(), want.Len())
			}
		}
	}

	check("before refresh")
	if e := rt.Snapshots().Current().Epoch(); e != 0 {
		t.Fatalf("initial epoch = %d, want 0", e)
	}
	tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, 99)
	rt.Refresh()
	if e := rt.Snapshots().Current().Epoch(); e != 1 {
		t.Fatalf("epoch after one 3-relation refresh = %d, want 1", e)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	check("after refresh")
}

func TestQueryReusesMaintainedView(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 5)
	rt.EnableServing(ServeOptions{})
	res, err := rt.Query(serveQueries[1]) // == rev_by_custnation
	if err != nil {
		t.Fatal(err)
	}
	var view *View
	for i := range rt.Plan.Views {
		if rt.Plan.Views[i].View.Name == "rev_by_custnation" {
			view = &rt.Plan.Views[i].View
		}
	}
	if view == nil {
		t.Fatal("workload view missing")
	}
	if !storage.EqualMultiset(res.Rows, rt.ViewRows(*view)) {
		t.Errorf("query equal to a view must answer from its maintained rows")
	}
	// The plan should read the stored result, not recompute the 3-way join.
	if res.Plan.String() != fmt.Sprintf("reuse(e%d)", res.Plan.E.ID) {
		t.Errorf("expected a root reuse plan, got %s", res.Plan)
	}
}

func TestRepeatedQueryHitsResultCache(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 5)
	if rep := rt.CacheReport(); rep != "" {
		t.Errorf("cache report before serving is enabled: %q", rep)
	}
	rt.EnableServing(ServeOptions{CacheBudget: 64 << 20})
	sql := serveQueries[2] // supplier aggregate: nothing materialized covers it
	for i := 0; i < 4; i++ {
		if _, err := rt.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.ServeStats()
	if st.Queries != 4 {
		t.Fatalf("queries = %d, want 4", st.Queries)
	}
	if st.CacheHits == 0 {
		t.Errorf("repeating a cacheable query should hit the result cache: %+v", st)
	}
	if st.Refills == 0 {
		t.Errorf("first hit must have refilled the admitted entry: %+v", st)
	}
	if rep := rt.CacheReport(); !strings.Contains(rep, "cache: 4 queries") {
		t.Errorf("cache report does not summarize the session:\n%s", rep)
	}
}

func TestQueryErrors(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 5)
	rt.EnableServing(ServeOptions{})
	for _, bad := range []string{
		"SELEC broken",
		"SELECT * FROM no_such_table",
		"SELECT nation.bogus FROM nation",
	} {
		if _, err := rt.Query(bad); err == nil {
			t.Errorf("query %q should fail with an error", bad)
		}
	}
	if _, err := rt.Query("SELECT * FROM nation"); err != nil {
		t.Errorf("valid query after failures: %v", err)
	}
}

// TestConcurrentQueriesSeeStepBoundaryStates is the serving isolation
// stress test (run under -race in CI): several goroutines issue queries
// while one writer runs full refresh cycles. Every result must equal the
// recomputation of the query at the step boundary the result claims as its
// epoch — i.e. no torn reads, no lost steps. It runs with sequential
// operators and again with partition-parallel operators on both the writer
// and the readers.
func TestConcurrentQueriesSeeStepBoundaryStates(t *testing.T) {
	for _, partitions := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", partitions), func(t *testing.T) {
			concurrentQueriesSeeStepBoundaryStates(t, partitions)
		})
	}
}

func concurrentQueriesSeeStepBoundaryStates(t *testing.T, partitions int) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.SetPartitions(partitions)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	cat := rt.Plan.System.Cat

	type sample struct {
		sqlIdx int
		epoch  int64
		rows   *storage.Relation
	}
	const readers = 4
	const cycles = 2
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
		done    = make(chan struct{})
	)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := (i + w) % len(serveQueries)
				res, err := rt.Query(serveQueries[qi])
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				mu.Lock()
				samples = append(samples, sample{sqlIdx: qi, epoch: res.Epoch, rows: res.Rows})
				mu.Unlock()
			}
		}(w)
	}

	for c := 0; c < cycles; c++ {
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 4, int64(300+c))
		rt.Refresh()
	}
	// The refresh cycles can outrun the readers (the batch engine makes
	// them fast); keep serving until at least one sample lands so the
	// consistency check below is never vacuous.
	for deadline := time.Now().Add(10 * time.Second); ; {
		mu.Lock()
		n := len(samples)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}

	// Reference answers per (query, epoch), recomputed from the retained
	// snapshots' base relations.
	cd := dag.New(cat)
	roots := make([]*dag.Equiv, len(serveQueries))
	for i, sql := range serveQueries {
		roots[i] = cd.InsertExpr(viewdef.MustParse(cat, sql))
	}
	type key struct {
		sqlIdx int
		epoch  int64
	}
	want := make(map[key]*storage.Relation)
	checked := 0
	for _, s := range samples {
		k := key{s.sqlIdx, s.epoch}
		w, ok := want[k]
		if !ok {
			snap := rt.Snapshots().At(s.epoch)
			if snap == nil {
				t.Fatalf("result claims epoch %d, which was never published", s.epoch)
			}
			w = recomputeAt(cd, roots[s.sqlIdx], snap)
			want[k] = w
		}
		if !storage.EqualMultiset(s.rows, w) {
			t.Fatalf("torn read: query %d at epoch %d has %d rows, recomputation has %d",
				s.sqlIdx, s.epoch, s.rows.Len(), w.Len())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no samples collected")
	}
	maxEpoch := rt.Snapshots().Current().Epoch()
	if maxEpoch != int64(cycles) {
		t.Errorf("final epoch = %d, want %d", maxEpoch, cycles)
	}
	t.Logf("checked %d samples across %d epochs, %d distinct (query, epoch) states",
		checked, maxEpoch+1, len(want))
}
