package equivtest

// Deterministic regression cases for the float semantics where a naive
// vectorized loop diverges from Value.Compare: NaN is a singleton class
// ordered BEFORE every other numeric (so NaN < 5 is true even though the
// IEEE comparison is false), and -0.0 equals 0.0 under Compare while staying
// bit-distinct in output.

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
)

// floatTable registers a one-float-column table with the given values.
func floatTable(cat *catalog.Catalog, db *storage.Database, vals []float64) {
	t := &catalog.Table{Name: "f", Columns: []catalog.Column{
		{Name: "x", Type: catalog.Float, Width: 8},
	}, PrimaryKey: []string{"x"}, Stats: catalog.TableStats{Rows: int64(len(vals))}}
	cat.AddTable(t)
	db.Create("f", algebra.TableSchema(t, "f"))
	rel := db.MustRelation("f")
	for _, v := range vals {
		rel.Insert(algebra.Tuple{algebra.NewFloat(v)})
	}
}

func TestNaNOrderedBeforeNumerics(t *testing.T) {
	vals := []float64{math.NaN(), -1, math.Copysign(0, -1), 0, 1, 5, math.NaN(), 7}
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	lits := []float64{math.NaN(), math.Copysign(0, -1), 0, 5}
	for _, op := range ops {
		for _, lit := range lits {
			cat, db := catalog.New(), storage.NewDatabase()
			floatTable(cat, db, vals)
			node := algebra.NewSelect(
				algebra.Pred{Conjuncts: []algebra.Cmp{algebra.CmpConst("f.x", op, algebra.NewFloat(lit))}},
				algebra.NewScan(cat, "f"))
			CheckNode(t, 0, cat, db, node, false)
		}
	}
	// Sanity-check the oracle itself: NaN orders before 5, so x < 5 keeps
	// both NaN rows.
	cat, db := catalog.New(), storage.NewDatabase()
	floatTable(cat, db, vals)
	node := algebra.NewSelect(
		algebra.Pred{Conjuncts: []algebra.Cmp{algebra.CmpConst("f.x", algebra.LT, algebra.NewFloat(5))}},
		algebra.NewScan(cat, "f"))
	got := Eval(db, dag.New(cat).AddQuery("q", node))
	if got.Len() != 6 { // NaN, -1, -0.0, 0, 1, NaN
		t.Errorf("x < 5 over %v: want 6 rows (NaNs order before numerics), got %d", vals, got.Len())
	}
}

func TestSignedZeroSurvivesBitExact(t *testing.T) {
	cat, db := catalog.New(), storage.NewDatabase()
	floatTable(cat, db, []float64{math.Copysign(0, -1), 0})
	// -0.0 == 0.0 under Compare: an EQ 0 filter keeps both rows, and the
	// output must carry the original sign bits.
	node := algebra.NewSelect(
		algebra.Pred{Conjuncts: []algebra.Cmp{algebra.CmpConst("f.x", algebra.EQ, algebra.NewFloat(0))}},
		algebra.NewScan(cat, "f"))
	got := exec.NewExecutor(db).EvalNode(dag.New(cat).AddQuery("q", node))
	if got.Len() != 2 {
		t.Fatalf("EQ 0 filter: want 2 rows, got %d", got.Len())
	}
	if math.Signbit(got.Rows()[0][0].F) != true || math.Signbit(got.Rows()[1][0].F) != false {
		t.Errorf("sign bits not preserved: got %v, %v", got.Rows()[0][0], got.Rows()[1][0])
	}
}
