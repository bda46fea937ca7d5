package exec

// Key-hash columns as operators read them: Batch.keyHashes must agree with
// Tuple.HashCols on the gathered rows in every batch form, a filtered
// relation must be probed through its selection rather than through a
// gathered copy, and a Maintainer must lower each differential plan once.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/diff"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// checkKeyHashes holds b.keyHashes(cols) to Tuple.HashCols over b's gathered
// rows, through both at and dense.
func checkKeyHashes(t *testing.T, form string, b *Batch, cols []int) {
	t.Helper()
	hc := b.keyHashes(cols)
	rows := b.Materialize(b.schema).Rows()
	if len(rows) != b.n {
		t.Fatalf("%s: gathered %d rows, batch has %d", form, len(rows), b.n)
	}
	d := hc.dense()
	if len(d) != b.n {
		t.Fatalf("%s: dense column has %d hashes for %d rows", form, len(d), b.n)
	}
	for i, row := range rows {
		want := row.HashCols(cols)
		if got := hc.at(i); got != want {
			t.Fatalf("%s cols %v: at(%d) = %x, HashCols of gathered row %v = %x", form, cols, i, got, row, want)
		}
		if d[i] != want {
			t.Fatalf("%s cols %v: dense[%d] = %x, want %x", form, cols, i, d[i], want)
		}
	}
	if again := b.keyHashes(cols); again.at(0) != hc.at(0) || len(again.sel) != len(hc.sel) {
		t.Fatalf("%s cols %v: a repeated keyHashes disagrees with the first", form, cols)
	}
}

func TestKeyHashesMatchGatheredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		r := randRelOf(rng, "r", []string{"a", "b", "c"}, 50+rng.Intn(200))
		s := randRelOf(rng, "s", []string{"a", "d"}, 20+rng.Intn(60))
		rs := r.Schema()
		// A projection that reorders and drops columns.
		proj := algebra.Schema{rs[2], rs[0]}
		lt := func(col string, v int64) algebra.Pred {
			return algebra.And(algebra.CmpConst(col, algebra.LT, algebra.NewInt(v)))
		}
		filtered := chainFilter(batchOf(r), lt("r.a", 1+int64(rng.Intn(10))))
		if filtered.sel == nil {
			t.Fatalf("trial %d: the filter kept every row; no selection to read through", trial)
		}
		forms := []struct {
			name string
			b    *Batch
		}{
			{"relation", batchOf(r)},
			{"relation+proj", batchOf(r).project(proj)},
			{"relation+sel", filtered},
			{"relation+sel+sel", chainFilter(filtered, lt("r.b", 9))},
			{"relation+proj+sel", chainFilter(batchOf(r).project(proj), lt("r.c", 8))},
			{"join over a filtered side", chainJoin(filtered, batchOf(s),
				algebra.And(algebra.Eq("r.a", "s.a")), trial%2 == 0, rs.Concat(s.Schema()))},
			{"column", chainConcat([]*Batch{filtered, batchOf(r)}, rs)},
		}
		for _, f := range forms {
			if f.b.n == 0 {
				continue
			}
			width := len(f.b.schema)
			checkKeyHashes(t, f.name, f.b, []int{0})
			checkKeyHashes(t, f.name, f.b, []int{width - 1, 0})
			all := make([]int, width)
			for k := range all {
				all[k] = k
			}
			checkKeyHashes(t, f.name, f.b, all)
		}
	}
}

// TestFilteredProbeJoinAllocatesNoHashCopy: a hash join whose probe side is a
// filtered relation reads the relation's cached hash column through the
// selection. Gathering a per-row copy would cost 8 bytes per surviving row;
// the bound is under 1 byte per row for the whole join (its output is 16
// pairs).
func TestFilteredProbeJoinAllocatesNoHashCopy(t *testing.T) {
	const probeRows, keep, buildRows = 60000, 55000, 16
	probe := storage.NewRelation(algebra.Schema{{Rel: "p", Name: "k"}, {Rel: "p", Name: "v"}})
	for i := 0; i < probeRows; i++ {
		probe.Append(algebra.Tuple{algebra.NewInt(int64(i)), algebra.NewInt(int64(i % 7))})
	}
	build := storage.NewRelation(algebra.Schema{{Rel: "b", Name: "k"}})
	for i := 0; i < buildRows; i++ {
		build.Append(algebra.Tuple{algebra.NewInt(int64(i * 1000))})
	}
	pred := algebra.And(algebra.Eq("b.k", "p.k"))
	target := build.Schema().Concat(probe.Schema())
	filter := func() *Batch {
		return chainFilter(batchOf(probe), algebra.And(algebra.CmpConst("p.k", algebra.LT, algebra.NewInt(keep))))
	}
	// Warm up: the relations' column views and hash columns, and the pooled
	// build table.
	if got := chainJoin(batchOf(build), filter(), pred, true, target).Len(); got != buildRows {
		t.Fatalf("join emitted %d rows, want %d", got, buildRows)
	}

	in := filter()
	if in.n != keep || in.sel == nil {
		t.Fatalf("filter kept %d rows (selection %v), want %d through a selection", in.n, in.sel != nil, keep)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	out := chainJoin(batchOf(build), in, pred, true, target)
	runtime.ReadMemStats(&ms)
	bytes := ms.TotalAlloc - before
	if out.Len() != buildRows {
		t.Fatalf("join emitted %d rows, want %d", out.Len(), buildRows)
	}
	t.Logf("join over a %d-row filtered probe allocated %d bytes", keep, bytes)
	if perRow := float64(bytes) / keep; perRow >= 1 {
		t.Errorf("join allocated %.2f bytes per probe row; want < 1 (no gathered hash column)", perRow)
	}
}

// TestSecondRefreshLowersNoPlan: the differential plans are fixed for a
// Maintainer's lifetime, so the lowered plans of the first Refresh serve
// every later one, node for node.
func TestSecondRefreshLowersNoPlan(t *testing.T) {
	f := newFixture(53)
	h := newHarness(t, f, []string{"orders", "customer"}, 10, nil, ordersCustomer(f.cat))
	var nk int64 = 1000
	f.logUpdates("orders", 20, &nk)
	f.logUpdates("customer", 5, &nk)
	h.mt.Refresh()
	first := make(map[diff.DiffKey]*volcano.PlanNode, len(h.mt.lowered))
	for k, p := range h.mt.lowered {
		first[k] = p
	}
	if len(first) == 0 {
		t.Fatal("the first Refresh lowered no differential plan")
	}

	f.logUpdates("orders", 20, &nk)
	f.logUpdates("customer", 5, &nk)
	h.mt.Refresh()
	h.checkViews(t)
	if len(h.mt.lowered) != len(first) {
		t.Errorf("the second Refresh left %d lowered plans, the first %d", len(h.mt.lowered), len(first))
	}
	for k, p := range h.mt.lowered {
		if first[k] != p {
			t.Errorf("δ%d(e%d) was lowered again by the second Refresh", k.Update, k.EquivID)
		}
	}
}
