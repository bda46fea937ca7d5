package equivtest

// Per-operator differential-oracle tests: every operator kernel evaluated at
// one, four and seven partitions over randomized schemas and data, asserting
// byte-identical output against the sequential row oracle (sorted-multiset
// identity for aggregates, whose row order follows map iteration).

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

func init() {
	// Engage the partition-parallel kernels on the small randomized inputs (the production threshold is tuned for real data).
	storage.ParMinRows = 16
}

func TestFilterEquivalence(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := RandTable(rng, cat, db, "r1", 3+rng.Intn(3), 48+rng.Intn(200), true)
		node := algebra.NewSelect(RandPred(rng, tb), algebra.NewScan(cat, "r1"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestProjectEquivalence(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := RandTable(rng, cat, db, "r1", 3+rng.Intn(3), 48+rng.Intn(150), true)
		// Random column subset/permutation, duplicates allowed.
		n := 1 + rng.Intn(len(tb.Cols))
		cols := make([]algebra.ColRef, n)
		for i := range cols {
			cols[i] = algebra.C(tb.QCol(rng.Intn(len(tb.Cols))))
		}
		node := algebra.NewProject(cols, algebra.NewScan(cat, "r1"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

// randClause builds one disjunctive clause of 2–3 alternatives over tb's
// columns (column-vs-literal and column-vs-column comparisons, tricky
// literals included).
func randClause(rng *rand.Rand, tb Table) []algebra.Cmp {
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	n := 2 + rng.Intn(2)
	cl := make([]algebra.Cmp, 0, n)
	for k := 0; k < n; k++ {
		op := ops[rng.Intn(len(ops))]
		ci := rng.Intn(len(tb.Cols))
		if rng.Intn(3) == 0 {
			cj := rng.Intn(len(tb.Cols))
			cl = append(cl, algebra.Cmp{Op: op, L: algebra.C(tb.QCol(ci)), R: algebra.C(tb.QCol(cj))})
			continue
		}
		cl = append(cl, algebra.CmpConst(tb.QCol(ci), op, RandValue(rng, tb.Cols[ci].Type, true)))
	}
	return cl
}

// TestFilterDisjunctionEquivalence: OR-of-comparisons selections — clauses
// alone and clauses ANDed with conjuncts — must agree bit-for-bit between
// the row oracle and the vectorized selection kernel (which evaluates every
// clause in a single dense pass through a scratch bitmap, never falling back
// to per-row evaluation).
func TestFilterDisjunctionEquivalence(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(2100 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := RandTable(rng, cat, db, "r1", 3+rng.Intn(3), 48+rng.Intn(200), true)
		pred := algebra.Pred{Clauses: [][]algebra.Cmp{randClause(rng, tb)}}
		if rng.Intn(2) == 0 { // AND a second clause (CNF of two disjunctions)
			pred.Clauses = append(pred.Clauses, randClause(rng, tb))
		}
		if rng.Intn(2) == 0 { // AND plain conjuncts in front
			pred.Conjuncts = RandPred(rng, tb).Conjuncts
		}
		node := algebra.NewSelect(pred, algebra.NewScan(cat, "r1"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestHashJoinEquivalence(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 2+rng.Intn(3), 48+rng.Intn(150), true)
		t2 := RandTable(rng, cat, db, "r2", 2+rng.Intn(3), 48+rng.Intn(150), true)
		conj := []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))}
		if rng.Intn(2) == 0 { // cross-side residual conjunct
			ops := []algebra.CmpOp{algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
			conj = append(conj, algebra.Cmp{
				Op: ops[rng.Intn(len(ops))],
				L:  algebra.C(t1.QCol(rng.Intn(len(t1.Cols)))),
				R:  algebra.C(t2.QCol(rng.Intn(len(t2.Cols)))),
			})
		}
		if rng.Intn(3) == 0 { // single-side residual conjunct
			conj = append(conj, algebra.CmpConst(t2.QCol(rng.Intn(len(t2.Cols))),
				algebra.LE, RandValue(rng, catalog.Float, true)))
		}
		node := algebra.NewJoin(algebra.Pred{Conjuncts: conj},
			algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

// TestHashJoinDisjunctiveResidualEquivalence: an equi-join whose residual
// carries an OR-of-comparisons clause spanning both sides — the join's
// two-sided residual compiler must apply clause semantics (any
// alternative passes), identically to the row oracle's Eval over the
// concatenated row.
func TestHashJoinDisjunctiveResidualEquivalence(t *testing.T) {
	ops := []algebra.CmpOp{algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(2300 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 2+rng.Intn(3), 48+rng.Intn(150), true)
		t2 := RandTable(rng, cat, db, "r2", 2+rng.Intn(3), 48+rng.Intn(150), true)
		cl := make([]algebra.Cmp, 0, 3)
		for k := 0; k < 2+rng.Intn(2); k++ {
			switch rng.Intn(3) {
			case 0: // cross-side alternative
				cl = append(cl, algebra.Cmp{
					Op: ops[rng.Intn(len(ops))],
					L:  algebra.C(t1.QCol(rng.Intn(len(t1.Cols)))),
					R:  algebra.C(t2.QCol(rng.Intn(len(t2.Cols)))),
				})
			case 1: // build-side literal alternative
				ci := rng.Intn(len(t1.Cols))
				cl = append(cl, algebra.CmpConst(t1.QCol(ci),
					ops[rng.Intn(len(ops))], RandValue(rng, t1.Cols[ci].Type, true)))
			default: // probe-side literal alternative
				ci := rng.Intn(len(t2.Cols))
				cl = append(cl, algebra.CmpConst(t2.QCol(ci),
					ops[rng.Intn(len(ops))], RandValue(rng, t2.Cols[ci].Type, true)))
			}
		}
		pred := algebra.Pred{
			Conjuncts: []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))},
			Clauses:   [][]algebra.Cmp{cl},
		}
		node := algebra.NewJoin(pred, algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestNestedLoopJoinEquivalence(t *testing.T) {
	// No equi-conjunct: the join falls back to the nested loop.
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 2, 20+rng.Intn(40), true)
		t2 := RandTable(rng, cat, db, "r2", 2, 20+rng.Intn(40), true)
		node := algebra.NewJoin(algebra.Pred{Conjuncts: []algebra.Cmp{{
			Op: algebra.LT, L: algebra.C(t1.QCol(0)), R: algebra.C(t2.QCol(0)),
		}}}, algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestDedupEquivalence(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		// Narrow schema over small domains: plenty of duplicates.
		RandTable(rng, cat, db, "r1", 2, 64+rng.Intn(150), true)
		node := algebra.NewDedup(algebra.NewScan(cat, "r1"))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestMinusEquivalence(t *testing.T) {
	// l − r over two selections of the same table: overlapping multisets
	// with matching schemas.
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1100 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := RandTable(rng, cat, db, "r1", 3, 64+rng.Intn(150), true)
		node := algebra.NewMinus(
			algebra.NewSelect(RandPred(rng, tb), algebra.NewScan(cat, "r1")),
			algebra.NewSelect(RandPred(rng, tb), algebra.NewScan(cat, "r1")))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestUnionEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1300 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := RandTable(rng, cat, db, "r1", 3, 64+rng.Intn(150), true)
		node := algebra.NewUnion(
			algebra.NewSelect(RandPred(rng, tb), algebra.NewScan(cat, "r1")),
			algebra.NewSelect(RandPred(rng, tb), algebra.NewScan(cat, "r1")))
		CheckNode(t, trial, cat, db, node, false)
	}
}

func TestAggregateEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1500 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		// NaN-free whole-number data: aggregate sums must be exact so the
		// sorted-rendering comparison is meaningful.
		tb := RandTable(rng, cat, db, "r1", 3+rng.Intn(2), 64+rng.Intn(200), false)
		group := algebra.C(tb.QCol(rng.Intn(len(tb.Cols))))
		// Aggregate a numeric column if one exists beyond the group key.
		aggCol := -1
		for i, c := range tb.Cols {
			if c.Type == catalog.Int || c.Type == catalog.Float {
				aggCol = i
			}
		}
		specs := []algebra.AggSpec{{Func: algebra.Count}}
		if aggCol >= 0 {
			switch rng.Intn(4) {
			case 0:
				specs = append(specs, algebra.AggSpec{Func: algebra.Sum, Col: algebra.C(tb.QCol(aggCol))})
			case 1:
				specs = append(specs, algebra.AggSpec{Func: algebra.Avg, Col: algebra.C(tb.QCol(aggCol))})
			case 2:
				specs = append(specs, algebra.AggSpec{Func: algebra.Min, Col: algebra.C(tb.QCol(aggCol))},
					algebra.AggSpec{Func: algebra.Max, Col: algebra.C(tb.QCol(aggCol))})
			}
		}
		node := algebra.NewAggregate([]algebra.ColRef{group}, specs, algebra.NewScan(cat, "r1"))
		CheckNode(t, trial, cat, db, node, true)
	}
}
