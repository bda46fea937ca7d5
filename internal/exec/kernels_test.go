package exec

// Kernel tests: every chained kernel must emit the same rows in the same
// order at any partition/worker count (aggregation: set-equal with identical
// counts, since group output order is map order), the hash join must emit in
// probe order with build buckets in build order for either build side, and
// keyed kernels must confirm hash matches by value. Run under -race in CI, so
// the morsel and partition fan-out is exercised for races as well as results.
// Byte identity against the row oracle lives in internal/exec/equivtest (and
// batchdiff_test.go); a refresh-level partition-count independence test rides
// on the randomized maintenance harness fixture.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/storage"
)

// forcePar lowers the sequential-fallback threshold so small test inputs
// exercise the parallel paths, restoring it afterwards.
func forcePar(t *testing.T) {
	t.Helper()
	old := storage.ParMinRows
	storage.ParMinRows = 0
	t.Cleanup(func() { storage.ParMinRows = old })
}

// testPars is the partition sweep every kernel check runs: prime and
// non-prime fan-outs, with fewer workers than partitions and a worker per
// partition.
var testPars = []storage.Par{
	{Partitions: 2, Workers: 1},
	{Partitions: 4, Workers: 4},
	{Partitions: 7, Workers: 3},
}

// randRelOf builds a relation over single-table columns with random small-domain
// rows (lots of duplicate keys, so joins fan out and dedup has work).
func randRelOf(rng *rand.Rand, rel string, cols []string, n int) *storage.Relation {
	schema := make(algebra.Schema, len(cols))
	for i, c := range cols {
		schema[i] = algebra.Col{Rel: rel, Name: c}
	}
	r := storage.NewRelation(schema)
	for i := 0; i < n; i++ {
		t := make(algebra.Tuple, len(cols))
		for j := range t {
			t[j] = algebra.NewInt(int64(rng.Intn(12)))
		}
		r.Insert(t)
	}
	return r
}

func identical(t *testing.T, what string, want, got *storage.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d vs %d rows", what, want.Len(), got.Len())
	}
	for i, tu := range want.Rows() {
		if !tu.Equal(got.Rows()[i]) {
			t.Fatalf("%s: rows differ at %d", what, i)
		}
	}
}

// joinRows runs the hash join kernel over two row relations and gathers the
// l++r result.
func joinRows(l, r *storage.Relation, pred algebra.Pred, buildLeft bool, par storage.Par) *storage.Relation {
	target := l.Schema().Concat(r.Schema())
	return chainJoin(batchOf(l), batchOf(r), pred, buildLeft, target, par).Materialize(target, par)
}

// naiveJoin is the emission-order reference for a keyed join on column 0 with
// an optional row-pair residual: probe rows in order, matching build rows in
// build order, output in the l++r layout.
func naiveJoin(l, r *storage.Relation, buildLeft bool, residual func(lt, rt algebra.Tuple) bool) *storage.Relation {
	out := storage.NewRelation(l.Schema().Concat(r.Schema()))
	build, probe := l, r
	if !buildLeft {
		build, probe = r, l
	}
	for _, pt := range probe.Rows() {
		for _, bt := range build.Rows() {
			lt, rt := bt, pt
			if !buildLeft {
				lt, rt = pt, bt
			}
			if lt[0].Equal(rt[0]) && (residual == nil || residual(lt, rt)) {
				out.Append(append(append(algebra.Tuple{}, lt...), rt...))
			}
		}
	}
	return out
}

func TestKernelsPartitionIndependent(t *testing.T) {
	forcePar(t)
	seq := storage.Par{}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randRelOf(rng, "l", []string{"k", "v"}, 120+rng.Intn(120))
		r := randRelOf(rng, "r", []string{"k", "w"}, 100+rng.Intn(150))
		lr := randRelOf(rng, "l", []string{"k", "v"}, 80)

		filt := algebra.And(algebra.CmpConst("l.k", algebra.LT, algebra.NewInt(8)))
		proj := algebra.Schema{{Rel: "l", Name: "v"}, {Rel: "l", Name: "k"}}
		joinEq := algebra.And(algebra.Eq("l.k", "r.k"))
		joinRes := algebra.And(algebra.Eq("l.k", "r.k"),
			algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
		cross := algebra.And(algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
		ls := l.Schema()

		sel := func(par storage.Par) *storage.Relation {
			return chainSelect(batchOf(l), filt, proj, par).Materialize(proj, par)
		}
		dd := func(par storage.Par) *storage.Relation {
			return chainDedup(batchOf(l), ls, par).Materialize(ls, par)
		}
		mn := func(par storage.Par) *storage.Relation {
			return chainMinus(batchOf(l), batchOf(lr), ls, par).Materialize(ls, par)
		}
		un := func(par storage.Par) *storage.Relation {
			return chainConcat([]*Batch{batchOf(l), batchOf(lr)}, ls, par).Materialize(ls, par)
		}
		for _, par := range testPars {
			identical(t, "chainSelect", sel(seq), sel(par))
			identical(t, "projectToP", projectToP(l, proj, seq), projectToP(l, proj, par))
			for _, buildLeft := range []bool{true, false} {
				identical(t, "chainJoin", joinRows(l, r, joinEq, buildLeft, seq), joinRows(l, r, joinEq, buildLeft, par))
				identical(t, "chainJoin+residual", joinRows(l, r, joinRes, buildLeft, seq), joinRows(l, r, joinRes, buildLeft, par))
			}
			identical(t, "nestedLoop", joinRows(l, r, cross, true, seq), joinRows(l, r, cross, true, par))
			identical(t, "chainDedup", dd(seq), dd(par))
			identical(t, "chainMinus", mn(seq), mn(par))
			identical(t, "chainConcat", un(seq), un(par))
		}
	}
}

// TestChainJoinEmissionOrder pins the build-side rule's consequence: with
// either side building — small build under a big probe and the reverse — the
// join emits probe rows in order with each probe row's matches in build
// order, at every partition count.
func TestChainJoinEmissionOrder(t *testing.T) {
	forcePar(t)
	rng := rand.New(rand.NewSource(42))
	small := randRelOf(rng, "l", []string{"k", "v"}, 40)
	big := randRelOf(rng, "r", []string{"k", "w"}, 400)
	pred := algebra.And(algebra.Eq("l.k", "r.k"))
	predRes := algebra.And(algebra.Eq("l.k", "r.k"),
		algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
	vLTw := func(lt, rt algebra.Tuple) bool { return lt[1].Compare(rt[1]) < 0 }
	for _, par := range append([]storage.Par{{}}, testPars...) {
		for _, buildLeft := range []bool{true, false} {
			identical(t, "small⋈big", naiveJoin(small, big, buildLeft, nil), joinRows(small, big, pred, buildLeft, par))
			identical(t, "small⋈big+residual", naiveJoin(small, big, buildLeft, vLTw), joinRows(small, big, predRes, buildLeft, par))
		}
	}
}

// TestKeyedKernelsConfirmCollisions forces every row into one hash bucket
// (constant key-hash columns installed on the inputs' column views), so the
// join and the dedup are correct only if they confirm matches by value.
func TestKeyedKernelsConfirmCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randRelOf(rng, "l", []string{"k", "v"}, 60)
	r := randRelOf(rng, "r", []string{"k", "w"}, 90)
	l.ColView().InstallKeyHashes([]int{0}, make([]uint64, l.Len()))
	r.ColView().InstallKeyHashes([]int{0}, make([]uint64, r.Len()))
	pred := algebra.And(algebra.Eq("l.k", "r.k"))
	identical(t, "all-colliding join", naiveJoin(l, r, true, nil), joinRows(l, r, pred, true, storage.Par{}))

	d := randRelOf(rng, "l", []string{"k", "v"}, 200)
	want := storage.NewRelation(d.Schema())
	for _, tu := range d.Rows() {
		seen := false
		for _, prev := range want.Rows() {
			if prev.Equal(tu) {
				seen = true
				break
			}
		}
		if !seen {
			want.Append(tu)
		}
	}
	d.ColView().InstallKeyHashes([]int{0, 1}, make([]uint64, d.Len()))
	got := chainDedup(batchOf(d), d.Schema(), storage.Par{}).Materialize(d.Schema(), storage.Par{})
	identical(t, "all-colliding dedup", want, got)
}

func TestChainBuildAggPartitionsSetEqual(t *testing.T) {
	forcePar(t)
	rng := rand.New(rand.NewSource(5))
	in := randRelOf(rng, "l", []string{"k", "v"}, 300)
	op := &dag.Op{
		Kind:    dag.OpAggregate,
		GroupBy: []algebra.ColRef{algebra.C("l.k")},
		Aggs: []algebra.AggSpec{
			{Func: algebra.Count},
			{Func: algebra.Sum, Col: algebra.C("l.v")},
			{Func: algebra.Min, Col: algebra.C("l.v")},
			{Func: algebra.Max, Col: algebra.C("l.v")},
		},
	}
	out := algebra.Schema{
		{Rel: "l", Name: "k"}, {Rel: "", Name: "count"},
		{Rel: "", Name: "sum_v"}, {Rel: "", Name: "min_v"}, {Rel: "", Name: "max_v"},
	}
	// The reference state is the row-at-a-time fold the Maintainer itself
	// uses for deltas (AggTable.Absorb).
	seq := NewAggTable(in.Schema(), op.GroupBy, op.Aggs, out)
	seq.Absorb(in, 1)
	for _, par := range testPars {
		got := chainAgg(batchOf(in), op, out, par, 16).Materialize(out, par)
		if !storage.EqualMultiset(seq.Rows(), got) {
			t.Fatalf("partitions=%d: aggregate diverged as multiset (%d vs %d rows)",
				par.Partitions, seq.Rows().Len(), got.Len())
		}
	}
	// The merged table must keep absorbing deltas exactly like a
	// sequentially built one (it becomes the maintained aggregate state).
	at := chainBuildAgg(batchOf(in), op.GroupBy, op.Aggs, out, storage.Par{Partitions: 4, Workers: 4}, 0)
	delta := randRelOf(rng, "l", []string{"k", "v"}, 50)
	at.Absorb(delta, 1)
	seq.Absorb(delta, 1)
	if !storage.EqualMultiset(seq.Rows(), at.Rows()) {
		t.Fatalf("merged AggTable diverged from sequential after absorbing a delta")
	}
}

// TestRefreshPartitionCountIndependence is the refresh-level golden test:
// the same workload refreshed at partitions ∈ {1, 4, 7} must leave the
// maintained (join-only, so order-deterministic) result byte-identical and
// exact against recomputation at every count.
func TestRefreshPartitionCountIndependence(t *testing.T) {
	forcePar(t)
	run := func(partitions int) *storage.Relation {
		f := newFixture(77)
		view := algebra.NewSelect(
			algebra.And(algebra.CmpConst("orders.o_price", algebra.LT, algebra.NewFloat(80))),
			ordersCustomer(f.cat))
		h := newHarness(t, f, []string{"orders", "customer"}, 10, nil, view)
		h.ex.Par = storage.Par{Partitions: partitions, Workers: partitions}
		var nextKey int64 = 10000
		for c := 0; c < 3; c++ {
			f.logUpdates("orders", 20, &nextKey)
			f.logUpdates("customer", 8, &nextKey)
			h.mt.Refresh()
		}
		h.checkViews(t)
		return h.ex.Mat[h.roots[0].ID]
	}
	base := run(1)
	for _, p := range []int{4, 7} {
		identical(t, "refresh@partitions", base, run(p))
	}
}
