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
	"math"
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

// ---------------------------------------------------------------------------
// Predicate lanes (batch.go): every lane the compile table can pick must give
// the verdicts of the row-at-a-time reference, algebra's BoundPred.Eval over
// Value.Compare.

// Boundary payloads: both sides of 2^53 (where float64 stops holding every
// integer) and of 2^63, the IEEE specials, and non-integral floats on both
// sides of an integer.
var (
	laneInts = []int64{0, 1, -1, 2, 3, 6, -3, 1<<53 - 1, 1 << 53, 1<<53 + 1,
		-(1 << 53), -(1 << 53) - 1, math.MinInt64, math.MaxInt64}
	laneFloats = []float64{0, math.Copysign(0, -1), 1, 2, 2.5, -2.5, 3, 5.999, 6,
		1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 63, -(1 << 63), -(1 << 63) - 2048,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e300}
	laneStrs = []string{"", "2", "a", "b"}
)

// laneValue draws a value of the given class: 0 Int, 1 Date, 2 Float, 3 Str,
// anything else one of those at random (a RepMixed column).
func laneValue(rng *rand.Rand, class int) algebra.Value {
	switch class {
	case 0:
		return algebra.NewInt(laneInts[rng.Intn(len(laneInts))])
	case 1:
		return algebra.NewDate(laneInts[rng.Intn(len(laneInts))])
	case 2:
		return algebra.NewFloat(laneFloats[rng.Intn(len(laneFloats))])
	case 3:
		return algebra.NewString(laneStrs[rng.Intn(len(laneStrs))])
	}
	return laneValue(rng, rng.Intn(4))
}

// laneRel builds the relation the lane tests filter: t.a is the column under
// test, t.g gates compose mode (few survivors per bitmap word in the first
// half, many in the second, so both compose strategies run), and t.ri, t.rf,
// t.rs are right-hand columns of one class each.
func laneRel(rows []algebra.Tuple) *storage.Relation {
	r := storage.NewRelation(algebra.Schema{{Rel: "t", Name: "a"}, {Rel: "t", Name: "g"},
		{Rel: "t", Name: "ri"}, {Rel: "t", Name: "rf"}, {Rel: "t", Name: "rs"}})
	r.AppendAll(rows)
	return r
}

func randLaneRel(rng *rand.Rand, class, n int) *storage.Relation {
	rows := make([]algebra.Tuple, n)
	for i := range rows {
		g := int64(rng.Intn(40))
		if i >= n/2 {
			g = int64(rng.Intn(3))
		}
		rows[i] = algebra.Tuple{laneValue(rng, class), algebra.NewInt(g),
			laneValue(rng, 0), laneValue(rng, 2), laneValue(rng, 3)}
	}
	return laneRel(rows)
}

// checkLanes evaluates cmp alone (fill mode), behind a gate conjunct (compose
// mode) and beside it in a clause (fill into the clause scratch), sequentially
// and over four word-aligned ranges, against BoundPred.Eval row by row.
func checkLanes(t *testing.T, rel *storage.Relation, cmp algebra.Cmp) {
	t.Helper()
	gate := algebra.CmpConst("t.g", algebra.LT, algebra.NewInt(2))
	preds := map[string]algebra.Pred{"fill": algebra.And(cmp), "compose": algebra.And(gate, cmp), "clause": algebra.Or(gate, cmp)}
	for mode, pred := range preds {
		bp := pred.Bind(rel.Schema())
		for _, par := range []storage.Par{{}, {Partitions: 4, Workers: 4}} {
			bm := selBitmapCmps(rel, bp.Cmps(), bp.Clauses(), par)
			for i, row := range rel.Rows() {
				if got, want := bm.Get(i), bp.Eval(row); got != want {
					t.Fatalf("%s, %s mode, %d partitions: row %d %v: lane says %v, Value.Compare says %v",
						cmp, mode, par.Partitions, i, row, got, want)
				}
			}
		}
	}
}

// denseLane reports whether a lane is a typed loop over a coerced operand.
func denseLane(ln lane) bool { return ln.kind >= laneIntLit }

var allCmpOps = []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}

func TestPredicateLanesMatchCompare(t *testing.T) {
	forcePar(t)
	a := algebra.C("t.a")
	var rhs []algebra.Expr
	for _, c := range laneInts {
		rhs = append(rhs, algebra.Const{Val: algebra.NewInt(c)}, algebra.Const{Val: algebra.NewDate(c)})
	}
	for _, c := range laneFloats {
		rhs = append(rhs, algebra.Const{Val: algebra.NewFloat(c)})
	}
	for _, c := range laneStrs {
		rhs = append(rhs, algebra.Const{Val: algebra.NewString(c)})
	}
	rhs = append(rhs, algebra.C("t.ri"), algebra.C("t.rf"), algebra.C("t.rs"),
		algebra.Arith{Op: algebra.Add, L: algebra.C("t.rf"), R: algebra.Const{Val: algebra.NewFloat(0.5)}},
		algebra.Arith{Op: algebra.Div, L: algebra.C("t.ri"), R: algebra.C("t.rf")}) // ±Inf and NaN lanes
	for class := 0; class <= 4; class++ {
		rel := randLaneRel(rand.New(rand.NewSource(int64(2800+class))), class, 333)
		for _, r := range rhs {
			for _, op := range allCmpOps {
				checkLanes(t, rel, algebra.Cmp{Op: op, L: a, R: r})
			}
		}
		// The literal-on-the-left and arithmetic-on-both-sides normalizations.
		lane := algebra.Arith{Op: algebra.Mul, L: a, R: algebra.Const{Val: algebra.NewInt(1)}}
		for _, op := range allCmpOps {
			checkLanes(t, rel, algebra.Cmp{Op: op, L: algebra.Const{Val: algebra.NewFloat(2.5)}, R: a})
			checkLanes(t, rel, algebra.Cmp{Op: op, L: algebra.Const{Val: algebra.NewInt(1 << 53)}, R: lane})
			checkLanes(t, rel, algebra.Cmp{Op: op, L: lane, R: algebra.C("t.ri")})
			checkLanes(t, rel, algebra.Cmp{Op: op, L: lane, R: rhs[len(rhs)-1]})
		}
	}
}

// TestLaneTable pins what the compile table resolves to — the regression this
// guards is a single-class pair silently taking the row-at-a-time arm, which
// no result can show.
func TestLaneTable(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	rel := randLaneRel(rng, 4, 40) // t.a mixed
	cv := rel.ColView()
	compile := func(c algebra.Cmp) lane {
		return compileLane(algebra.And(c).Bind(rel.Schema()).Cmps()[0], cv)
	}
	lit := func(col string, op algebra.CmpOp, v algebra.Value) lane { return compile(algebra.CmpConst(col, op, v)) }

	if ln := lit("t.rf", algebra.LT, algebra.NewInt(6)); ln.kind != laneFloatLit || ln.r.val != algebra.NewFloat(6) ||
		ln.op != algebra.GE || !ln.neg {
		t.Errorf("float column < Int(6): %+v, want the dense float lane !(x >= 6.0)", ln)
	}
	if ln := lit("t.rf", algebra.GT, algebra.NewDate(-(1<<53)+1)); ln.kind != laneFloatLit {
		t.Errorf("float column > Date(-(2^53-1)): kind %d, want the dense float lane", ln.kind)
	}
	if ln := lit("t.ri", algebra.LT, algebra.NewFloat(2.5)); ln.kind != laneIntLit || ln.r.val != algebra.NewInt(2) ||
		ln.op != algebra.GT || !ln.neg {
		t.Errorf("int column < Float(2.5): %+v, want the dense int lane !(x > 2)", ln)
	}
	if ln := lit("t.ri", algebra.GE, algebra.NewFloat(-2.5)); ln.kind != laneIntLit || ln.r.val != algebra.NewInt(-3) ||
		ln.op != algebra.GT || ln.neg {
		t.Errorf("int column >= Float(-2.5): %+v, want the dense int lane x > -3", ln)
	}
	if ln := lit("t.rf", algebra.EQ, algebra.NewFloat(math.NaN())); ln.kind != laneFloatLit || !math.IsInf(ln.r.val.F, -1) ||
		ln.op != algebra.GE || !ln.neg {
		t.Errorf("float column = NaN: %+v, want the dense float lane !(x >= -Inf)", ln)
	}
	for _, c := range []int64{1 << 53, -(1 << 53), math.MaxInt64, math.MinInt64} {
		if ln := lit("t.rf", algebra.LT, algebra.NewInt(c)); ln.kind != laneBigIntLit || denseLane(ln) {
			t.Errorf("float column < Int(%d): kind %d, want the exact row-by-row lane (no coercion)", c, ln.kind)
		}
	}
	for _, op := range allCmpOps {
		if ln := lit("t.a", op, algebra.NewInt(6)); ln.kind != laneRows {
			t.Errorf("mixed column %s Int(6): kind %d, want the Value.Compare arm", op, ln.kind)
		}
		if ln := compile(algebra.Cmp{Op: op, L: algebra.C("t.ri"), R: algebra.C("t.a")}); ln.kind != laneRows {
			t.Errorf("int column %s mixed column: kind %d, want the Value.Compare arm", op, ln.kind)
		}
	}
	for what, ln := range map[string]lane{
		"int column = Float(2.5)":   lit("t.ri", algebra.EQ, algebra.NewFloat(2.5)),
		"int column < Float(NaN)":   lit("t.ri", algebra.LT, algebra.NewFloat(math.NaN())),
		"int column < Float(+Inf)":  lit("t.ri", algebra.LT, algebra.NewFloat(math.Inf(1))),
		"float column >= NaN":       lit("t.rf", algebra.GE, algebra.NewFloat(math.NaN())),
		"float column < String":     lit("t.rf", algebra.LT, algebra.NewString("a")),
		"string column < Int":       lit("t.rs", algebra.LT, algebra.NewInt(1)),
		"string column < float col": compile(algebra.Cmp{Op: algebra.LT, L: algebra.C("t.rs"), R: algebra.C("t.rf")}),
	} {
		if ln.kind != laneConst {
			t.Errorf("%s: kind %d, want one verdict for every row", what, ln.kind)
		}
	}
	for what, c := range map[string]algebra.Cmp{
		"int < float columns": {Op: algebra.LT, L: algebra.C("t.ri"), R: algebra.C("t.rf")},
		"float > int columns": {Op: algebra.GT, L: algebra.C("t.rf"), R: algebra.C("t.ri")},
	} {
		if ln := compile(c); ln.kind != laneIntFloat || ln.l.src != 2 || ln.r.src != 3 || ln.op != algebra.GE || !ln.neg {
			t.Errorf("%s: %+v, want the exact int×float lane !(ri >= rf)", what, ln)
		}
	}
	arith := algebra.Arith{Op: algebra.Mul, L: algebra.C("t.rf"), R: algebra.Const{Val: algebra.NewInt(2)}}
	if ln := compile(algebra.Cmp{Op: algebra.LT, L: algebra.Const{Val: algebra.NewInt(6)}, R: arith}); ln.kind != laneFloatLit ||
		ln.l.arith == nil || ln.r.val != algebra.NewFloat(6) || ln.op != algebra.GT || ln.neg {
		t.Errorf("Int(6) < arithmetic lane: %+v, want the dense float lane x > 6.0", ln)
	}
	if ln := compile(algebra.Cmp{Op: algebra.LT, L: arith, R: algebra.C("t.rf")}); ln.kind != laneFloatFloat {
		t.Errorf("arithmetic lane < float column: kind %d, want the dense float×float lane", ln.kind)
	}
}

// TestResidualLanesMatchCompare runs join residuals that cross the numeric
// classes — on either side, against literals and across the sides, over
// filtered (selection-carrying) and reprojected inputs — against the row
// reference, and pins that they compile to lanes rather than to Values.
func TestResidualLanesMatchCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mk := func(rel string, n int) *storage.Relation {
		r := storage.NewRelation(algebra.Schema{{Rel: rel, Name: "k"}, {Rel: rel, Name: "i"}, {Rel: rel, Name: "f"}})
		for j := 0; j < n; j++ {
			r.Append(algebra.Tuple{algebra.NewInt(int64(rng.Intn(6))), laneValue(rng, 0), laneValue(rng, 2)})
		}
		return r
	}
	l, r := mk("l", 70), mk("r", 90)
	// The left input arrives filtered and with its columns permuted.
	lproj := algebra.Schema{l.Schema()[2], l.Schema()[0], l.Schema()[1]}
	lb := chainSelect(batchOf(l), algebra.And(algebra.CmpConst("l.k", algebra.NE, algebra.NewInt(3))), lproj, storage.Par{})
	lrel := lb.Materialize(lproj, storage.Par{})
	target := lproj.Concat(r.Schema())
	residuals := map[string]algebra.Cmp{
		"float col < Int":        algebra.CmpConst("l.f", algebra.LT, algebra.NewInt(3)),
		"Float <= int col":       {Op: algebra.LE, L: algebra.Const{Val: algebra.NewFloat(2.5)}, R: algebra.C("r.i")},
		"float col > int col":    {Op: algebra.GT, L: algebra.C("l.f"), R: algebra.C("r.i")},
		"int col != float col":   {Op: algebra.NE, L: algebra.C("l.i"), R: algebra.C("r.f")},
		"float col >= float col": {Op: algebra.GE, L: algebra.C("r.f"), R: algebra.C("l.f")},
	}
	for what, res := range residuals {
		pred := algebra.And(algebra.Eq("l.k", "r.k"), res)
		want := nestedLoop(lrel, r, pred, storage.Par{})
		for _, buildLeft := range []bool{true, false} {
			got := chainJoin(lb, batchOf(r), pred, buildLeft, target, storage.Par{}).Materialize(target, storage.Par{})
			if !storage.EqualMultiset(want, got) {
				t.Errorf("%s, buildLeft=%v: join differs from the nested loop (%d vs %d rows)", what, buildLeft, want.Len(), got.Len())
			}
			build, probe := lb, batchOf(r)
			if !buildLeft {
				build, probe = probe, build
			}
			rp := compileResidual([]algebra.Cmp{res}, nil, target, len(lproj), build, probe, buildLeft)
			if ln := rp.cs[0].ln; ln == nil || !denseLane(*ln) {
				t.Errorf("%s, buildLeft=%v: residual did not compile to a dense lane: %+v", what, buildLeft, ln)
			}
		}
	}
}

// TestChainJoinEmptySide: a join with an empty input emits the empty
// join-backed batch without hashing or walking the other side, whichever side
// builds, and every consumer of a batch accepts it.
func TestChainJoinEmptySide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := randRelOf(rng, "l", []string{"k", "v"}, 50)
	empty := storage.NewRelation(algebra.Schema{{Rel: "r", Name: "k"}, {Rel: "r", Name: "w"}})
	pred := algebra.And(algebra.Eq("l.k", "r.k"), algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.w")})
	target := algebra.Schema{{Rel: "r", Name: "w"}, {Rel: "l", Name: "k"}}
	for _, buildLeft := range []bool{true, false} {
		out := chainJoin(batchOf(full), batchOf(empty), pred, buildLeft, target, storage.Par{})
		if out.Len() != 0 || out.jl == nil {
			t.Fatalf("buildLeft=%v: %d rows, join-backed=%v; want the empty join-backed batch", buildLeft, out.Len(), out.jl != nil)
		}
		if cols, _ := full.ColView().CachedKeys(); len(cols) != 0 {
			t.Fatalf("buildLeft=%v: the non-empty side was hashed for a join that emits nothing", buildLeft)
		}
		if got := out.Materialize(target, storage.Par{}); got.Len() != 0 || !schemaEqual(got.Schema(), target) {
			t.Fatalf("buildLeft=%v: materialized %d rows in schema %s", buildLeft, got.Len(), got.Schema())
		}
		wk := algebra.And(algebra.CmpConst("r.w", algebra.LT, algebra.NewInt(3)))
		if got := chainDedup(chainSelect(out, wk, target, storage.Par{}), target, storage.Par{}); got.Len() != 0 {
			t.Fatalf("buildLeft=%v: select+dedup over the empty join kept %d rows", buildLeft, got.Len())
		}
		other := randRelOf(rng, "o", []string{"k", "u"}, 20)
		again := chainJoin(out, batchOf(other), algebra.And(algebra.Eq("l.k", "o.k")), buildLeft, target.Concat(other.Schema()), storage.Par{})
		if again.Len() != 0 {
			t.Fatalf("buildLeft=%v: join over the empty join emitted %d rows", buildLeft, again.Len())
		}
	}
}
