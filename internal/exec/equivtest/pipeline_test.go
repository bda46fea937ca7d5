package equivtest

// Pipeline differential-oracle tests: multi-operator trees evaluated end to
// end, so batches actually flow across operator boundaries (selection
// vectors composing under projection, join-backed outputs feeding further
// joins, dedups and aggregations) before the single sink-side gather. Every
// configuration of Modes() — one, four and seven partitions — must reproduce
// the sequential row oracle byte-for-byte (sorted multiset for aggregate
// roots).
// Arithmetic predicates, NaN/-0.0 specials and mixed-kind (RepMixed) columns
// ride through every chain.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

// randArithExpr builds a random arithmetic expression of the given depth
// whose leaves are drawn from leaf (column references and literals). The
// result is always an Arith node.
func randArithExpr(rng *rand.Rand, leaf func() algebra.Expr, depth int) algebra.Expr {
	aops := []algebra.ArithOp{algebra.Add, algebra.Sub, algebra.Mul, algebra.Div}
	var l, r algebra.Expr
	if depth > 1 && rng.Intn(2) == 0 {
		l = randArithExpr(rng, leaf, depth-1)
	} else {
		l = leaf()
	}
	if depth > 1 && rng.Intn(3) == 0 {
		r = randArithExpr(rng, leaf, depth-1)
	} else {
		r = leaf()
	}
	return algebra.A(l, aops[rng.Intn(len(aops))], r)
}

// arithLeaf draws a leaf over one table: a column reference or a literal of
// any class (division produces ±Inf/NaN; strings coerce to 0 under AsFloat).
func arithLeaf(rng *rand.Rand, tb Table) func() algebra.Expr {
	return func() algebra.Expr {
		if rng.Intn(3) == 0 {
			return algebra.Const{Val: RandValue(rng, colTypes[rng.Intn(len(colTypes))], true)}
		}
		return algebra.C(tb.QCol(rng.Intn(len(tb.Cols))))
	}
}

// randArithPred builds a conjunction with at least one arithmetic side per
// conjunct.
func randArithPred(rng *rand.Rand, tb Table) algebra.Pred {
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	n := 1 + rng.Intn(2)
	conj := make([]algebra.Cmp, 0, n)
	for k := 0; k < n; k++ {
		l := randArithExpr(rng, arithLeaf(rng, tb), 2)
		var r algebra.Expr
		switch rng.Intn(3) {
		case 0:
			r = randArithExpr(rng, arithLeaf(rng, tb), 1)
		case 1:
			r = algebra.C(tb.QCol(rng.Intn(len(tb.Cols))))
		default:
			r = algebra.Const{Val: RandValue(rng, colTypes[rng.Intn(len(colTypes))], true)}
		}
		conj = append(conj, algebra.Cmp{Op: ops[rng.Intn(len(ops))], L: l, R: r})
	}
	return algebra.Pred{Conjuncts: conj}
}

// TestPipelineFilterJoinAggEquivalence: select → join → aggregate as one
// chain, the canonical refresh pipeline shape. NaN-free whole-number data
// keeps sums exact for the sorted comparison.
func TestPipelineFilterJoinAggEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(3100 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 3+rng.Intn(2), 64+rng.Intn(150), false)
		t2 := RandTable(rng, cat, db, "r2", 2+rng.Intn(2), 64+rng.Intn(150), false)
		join := algebra.NewJoin(
			algebra.Pred{Conjuncts: []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))}},
			algebra.NewSelect(RandPred(rng, t1), algebra.NewScan(cat, "r1")),
			algebra.NewScan(cat, "r2"))
		specs := []algebra.AggSpec{{Func: algebra.Count}}
		for i, c := range t2.Cols {
			if c.Type == catalog.Int || c.Type == catalog.Float {
				fn := []algebra.AggFunc{algebra.Sum, algebra.Avg, algebra.Min, algebra.Max}[rng.Intn(4)]
				specs = append(specs, algebra.AggSpec{Func: fn, Col: algebra.C(t2.QCol(i))})
				break
			}
		}
		node := algebra.NewAggregate(
			[]algebra.ColRef{algebra.C(t1.QCol(rng.Intn(len(t1.Cols))))}, specs, join)
		CheckNode(t, trial, cat, db, node, true)
	}
}

// TestPipelineJoinJoinDedupEquivalence: join → join → dedup as one chain, so
// a column-backed join output is itself the build or probe side of the next
// join and the dedup keys on a column-backed batch's hash fold. Tricky
// floats (NaN, -0.0) flow through every boundary.
func TestPipelineJoinJoinDedupEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(3300 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 2+rng.Intn(2), 48+rng.Intn(100), true)
		t2 := RandTable(rng, cat, db, "r2", 2+rng.Intn(2), 48+rng.Intn(100), true)
		t3 := RandTable(rng, cat, db, "r3", 2, 48+rng.Intn(100), true)
		j1 := algebra.NewJoin(
			algebra.Pred{Conjuncts: []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))}},
			algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2"))
		j2 := algebra.NewJoin(
			algebra.Pred{Conjuncts: []algebra.Cmp{algebra.Eq(t2.QCol(0), t3.QCol(0))}},
			j1, algebra.NewScan(cat, "r3"))
		node := algebra.NewDedup(j2)
		CheckNode(t, trial, cat, db, node, false)
	}
}

// TestPipelineArithFilterEquivalence: arithmetic predicates evaluated by the
// dense float lanes (unfiltered relation-backed batches), the row-at-a-time
// remap path (already-selected batches: the second select of the chain) and
// the batch-value path (column-backed join outputs) must all match the
// oracle.
func TestPipelineArithFilterEquivalence(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(3500 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 3+rng.Intn(3), 64+rng.Intn(200), true)
		node := algebra.NewSelect(randArithPred(rng, t1),
			algebra.NewSelect(RandPred(rng, t1), algebra.NewScan(cat, "r1")))
		CheckNode(t, trial, cat, db, node, false)
	}
}

// TestPipelineArithJoinResidualEquivalence: an equi-join whose residual
// conjunct carries arithmetic spanning both sides — the two-sided residual
// compiler resolves arithmetic leaves per side, over row tuples and batch
// values alike.
func TestPipelineArithJoinResidualEquivalence(t *testing.T) {
	ops := []algebra.CmpOp{algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(3700 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 2+rng.Intn(2), 48+rng.Intn(100), true)
		t2 := RandTable(rng, cat, db, "r2", 2+rng.Intn(2), 48+rng.Intn(100), true)
		crossLeaf := func() algebra.Expr {
			if rng.Intn(4) == 0 {
				return algebra.Const{Val: RandValue(rng, catalog.Float, true)}
			}
			if rng.Intn(2) == 0 {
				return algebra.C(t1.QCol(rng.Intn(len(t1.Cols))))
			}
			return algebra.C(t2.QCol(rng.Intn(len(t2.Cols))))
		}
		residual := algebra.Cmp{
			Op: ops[rng.Intn(len(ops))],
			L:  randArithExpr(rng, crossLeaf, 2),
			R:  algebra.C(t2.QCol(rng.Intn(len(t2.Cols)))),
		}
		pred := algebra.Pred{Conjuncts: []algebra.Cmp{
			algebra.Eq(t1.QCol(0), t2.QCol(0)), residual}}
		node := algebra.NewDedup(algebra.NewJoin(pred,
			algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2")))
		CheckNode(t, trial, cat, db, node, false)
	}
}

// mixedTable registers a table whose second column mixes every value kind in
// one column, so its ColVec degrades to RepMixed and every dense kernel takes
// its row-fallback arm.
func mixedTable(rng *rand.Rand, cat *catalog.Catalog, db *storage.Database, name string, nRows int) Table {
	cols := []catalog.Column{
		{Name: "c0", Type: catalog.Int, Width: 8},
		{Name: "c1", Type: catalog.Float, Width: 8},
	}
	tb := &catalog.Table{Name: name, Columns: cols, PrimaryKey: []string{"c0"},
		Stats: catalog.TableStats{Rows: int64(nRows)}}
	cat.AddTable(tb)
	db.Create(name, algebra.TableSchema(tb, name))
	rel := db.MustRelation(name)
	for r := 0; r < nRows; r++ {
		rel.Insert(algebra.Tuple{
			algebra.NewInt(int64(rng.Intn(8))),
			RandValue(rng, colTypes[rng.Intn(len(colTypes))], true),
		})
	}
	return Table{Name: name, Cols: cols}
}

// TestPipelineMixedRepEquivalence: chains over RepMixed columns — filtering,
// joining ON the mixed column (mixed-kind key hashing), arithmetic over it
// (AsFloat coercion of strings and dates) and dedup — stay byte-identical.
func TestPipelineMixedRepEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(3900 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		mixedTable(rng, cat, db, "r1", 64+rng.Intn(150))
		mixedTable(rng, cat, db, "r2", 64+rng.Intn(150))
		pred := algebra.Pred{Conjuncts: []algebra.Cmp{{
			Op: algebra.GE,
			L:  algebra.A(algebra.C("r1.c1"), algebra.Mul, algebra.Const{Val: algebra.NewFloat(2)}),
			R:  algebra.Const{Val: algebra.NewFloat(1)},
		}}}
		join := algebra.NewJoin(
			algebra.Pred{Conjuncts: []algebra.Cmp{algebra.Eq("r1.c1", "r2.c1")}},
			algebra.NewSelect(pred, algebra.NewScan(cat, "r1")),
			algebra.NewScan(cat, "r2"))
		node := algebra.NewDedup(join)
		CheckNode(t, trial, cat, db, node, false)
	}
}
