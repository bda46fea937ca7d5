package exec_test

// In-package-coverage companion to internal/exec/equivtest: the same
// differential-oracle discipline (the row oracle as reference; the engine at
// one, four and seven partitions must reproduce it byte-for-byte) driven
// from the executor's external test package so the kernels' coverage is
// attributed to internal/exec itself. The equivtest package holds the
// harness; this file holds compact operator sweeps plus the dense-path
// corner cases (uniform typed columns, column-vs-column comparisons,
// word-aligned parallel bitmap fills) that the randomized sweeps only hit
// probabilistically.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/exec/equivtest"
	"repro/internal/storage"
)

// lowParMinRows engages the parallel kernels on small test inputs,
// restoring the production threshold afterwards.
func lowParMinRows(t *testing.T) {
	t.Helper()
	prev := storage.ParMinRows
	storage.ParMinRows = 16
	t.Cleanup(func() { storage.ParMinRows = prev })
}

func TestBatchOperatorSweep(t *testing.T) {
	lowParMinRows(t)
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := equivtest.RandTable(rng, cat, db, "r1", 3+rng.Intn(3), 48+rng.Intn(200), true)
		t2 := equivtest.RandTable(rng, cat, db, "r2", 2+rng.Intn(3), 48+rng.Intn(150), true)

		// Filter with a random (possibly cross-class, possibly col-vs-col)
		// predicate.
		equivtest.CheckNode(t, trial, cat, db,
			algebra.NewSelect(equivtest.RandPred(rng, t1), algebra.NewScan(cat, "r1")), false)

		// Hash join on the shared Int key with an occasional residual.
		conj := []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))}
		if trial%2 == 0 {
			conj = append(conj, algebra.Cmp{Op: algebra.LE,
				L: algebra.C(t1.QCol(rng.Intn(len(t1.Cols)))),
				R: algebra.C(t2.QCol(rng.Intn(len(t2.Cols))))})
		}
		equivtest.CheckNode(t, trial, cat, db, algebra.NewJoin(algebra.Pred{Conjuncts: conj},
			algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2")), false)

		// Union, minus, dedup over selections of one table.
		equivtest.CheckNode(t, trial, cat, db, algebra.NewUnion(
			algebra.NewSelect(equivtest.RandPred(rng, t1), algebra.NewScan(cat, "r1")),
			algebra.NewSelect(equivtest.RandPred(rng, t1), algebra.NewScan(cat, "r1"))), false)
		equivtest.CheckNode(t, trial, cat, db, algebra.NewMinus(
			algebra.NewSelect(equivtest.RandPred(rng, t1), algebra.NewScan(cat, "r1")),
			algebra.NewSelect(equivtest.RandPred(rng, t1), algebra.NewScan(cat, "r1"))), false)
		equivtest.CheckNode(t, trial, cat, db, algebra.NewDedup(algebra.NewScan(cat, "r2")), false)

		// Aggregation over the join key (NaN-free data lives in column 0,
		// which is always Int).
		equivtest.CheckNode(t, trial, cat, db, algebra.NewAggregate(
			[]algebra.ColRef{algebra.C(t1.QCol(0))},
			[]algebra.AggSpec{{Func: algebra.Count}, {Func: algebra.Min, Col: algebra.C(t1.QCol(0))}},
			algebra.NewScan(cat, "r1")), true)
	}
}

// denseTable registers a table whose columns are uniformly typed, so every
// ColVec takes a dense representation and the typed comparison loops
// (denseConstOrd / denseColsOrd / denseConstFloat) run rather than the
// row-fallback path.
func denseTable(rng *rand.Rand, cat *catalog.Catalog, db *storage.Database,
	name string, types []catalog.Type, nRows int) equivtest.Table {
	cols := make([]catalog.Column, len(types))
	for i, ty := range types {
		cols[i] = catalog.Column{Name: "c" + string(rune('0'+i)), Type: ty, Width: 8}
	}
	tb := &catalog.Table{Name: name, Columns: cols, PrimaryKey: []string{"c0"},
		Stats: catalog.TableStats{Rows: int64(nRows)}}
	cat.AddTable(tb)
	db.Create(name, algebra.TableSchema(tb, name))
	rel := db.MustRelation(name)
	for r := 0; r < nRows; r++ {
		row := make(algebra.Tuple, len(cols))
		for i, ty := range types {
			row[i] = equivtest.RandValue(rng, ty, ty == catalog.Float)
		}
		rel.Insert(row)
	}
	return equivtest.Table{Name: name, Cols: cols}
}

func TestBatchDenseColumnPaths(t *testing.T) {
	lowParMinRows(t)
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(6000 + trial)))
		for _, ty := range []catalog.Type{catalog.Int, catalog.Float, catalog.String, catalog.Date} {
			cat, db := catalog.New(), storage.NewDatabase()
			tb := denseTable(rng, cat, db, "d1", []catalog.Type{ty, ty, ty}, 80+rng.Intn(120))

			// Column vs same-class literal: the dense typed loop.
			lit := equivtest.RandValue(rng, ty, true)
			op := ops[rng.Intn(len(ops))]
			equivtest.CheckNode(t, trial, cat, db, algebra.NewSelect(
				algebra.Pred{Conjuncts: []algebra.Cmp{algebra.CmpConst(tb.QCol(0), op, lit)}},
				algebra.NewScan(cat, "d1")), false)

			// Column vs column of the same class, both conjunct positions
			// (leading conjunct = dense fill, trailing = FilterRange
			// composition).
			equivtest.CheckNode(t, trial, cat, db, algebra.NewSelect(
				algebra.Pred{Conjuncts: []algebra.Cmp{
					{Op: ops[rng.Intn(len(ops))], L: algebra.C(tb.QCol(0)), R: algebra.C(tb.QCol(1))},
					{Op: ops[rng.Intn(len(ops))], L: algebra.C(tb.QCol(1)), R: algebra.C(tb.QCol(2))},
				}},
				algebra.NewScan(cat, "d1")), false)

			// Cross-class literal against a dense column: constant verdict
			// (every numeric orders before every string, etc.).
			other := catalog.String
			if ty == catalog.String {
				other = catalog.Int
			}
			equivtest.CheckNode(t, trial, cat, db, algebra.NewSelect(
				algebra.Pred{Conjuncts: []algebra.Cmp{
					algebra.CmpConst(tb.QCol(0), op, equivtest.RandValue(rng, other, true))}},
				algebra.NewScan(cat, "d1")), false)
		}
	}
}

// TestBatchLiteralOnLeft exercises the literal-side normalization (swapOp):
// predicates arrive with the literal on the left when views are authored
// that way.
func TestBatchLiteralOnLeft(t *testing.T) {
	lowParMinRows(t)
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := denseTable(rng, cat, db, "d1", []catalog.Type{catalog.Int, catalog.Float}, 100)
		for _, op := range ops {
			equivtest.CheckNode(t, trial, cat, db, algebra.NewSelect(
				algebra.Pred{Conjuncts: []algebra.Cmp{
					{Op: op, L: algebra.Const{Val: equivtest.RandValue(rng, catalog.Int, false)},
						R: algebra.C(tb.QCol(0))}}},
				algebra.NewScan(cat, "d1")), false)
		}
	}
}

// TestBatchLargeParallelFill pushes a single-conjunct filter over a relation
// large enough that the word-aligned parallel dense fill (not the
// sequential loop) handles it even at the production threshold.
func TestBatchLargeParallelFill(t *testing.T) {
	rng := rand.New(rand.NewSource(8000))
	cat, db := catalog.New(), storage.NewDatabase()
	n := storage.ParMinRows*2 + 37 // odd tail: the last range is word-unaligned
	tb := denseTable(rng, cat, db, "d1", []catalog.Type{catalog.Int, catalog.Float}, n)
	equivtest.CheckNode(t, 0, cat, db, algebra.NewSelect(
		algebra.Pred{Conjuncts: []algebra.Cmp{
			algebra.CmpConst(tb.QCol(0), algebra.GE, algebra.NewInt(3))}},
		algebra.NewScan(cat, "d1")), false)
	equivtest.CheckNode(t, 1, cat, db, algebra.NewDedup(algebra.NewScan(cat, "d1")), false)
}
