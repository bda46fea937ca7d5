// Package equivtest is the differential-oracle harness for the operator
// engine: it evaluates the same operator trees through a self-contained
// row-at-a-time oracle (oracle.go, which imports no engine code) and through
// exec.Executor at one, four and seven partitions, and asserts the outputs
// are BYTE-identical — same rows, same order, bit-equal values (so -0.0 vs
// 0.0 and NaN payloads are distinguished, which multiset equality cannot
// do). The oracle is the reference; every engine configuration must
// reproduce it exactly (aggregates as sorted multisets: their row order
// follows map iteration).
package equivtest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
)

// Mode is one engine configuration under test.
type Mode struct {
	Name string
	Par  storage.Par
}

// Modes returns the configurations that must reproduce the oracle
// byte-for-byte: the engine at one, four and seven partitions.
func Modes() []Mode {
	return []Mode{
		{Name: "p1"},
		{Name: "p4", Par: storage.Par{Partitions: 4, Workers: 4}},
		{Name: "p7", Par: storage.Par{Partitions: 7, Workers: 7}},
	}
}

// CheckNode evaluates node through the engine in every configuration of
// Modes() against the row oracle. sorted selects the aggregate comparison
// (sorted multiset) over strict byte identity.
func CheckNode(t testing.TB, trial int, cat *catalog.Catalog, db *storage.Database,
	node algebra.Node, sorted bool) {
	t.Helper()
	root := dag.New(cat).AddQuery("q", node)
	want := Eval(db, root)
	for _, m := range Modes() {
		ex := exec.NewExecutor(db)
		ex.Par = m.Par
		got := ex.EvalNode(root)
		var err error
		if sorted {
			err = EqualSorted(want, got)
		} else {
			err = Identical(want, got)
		}
		if err != nil {
			t.Errorf("trial %d mode %s: %v\nnode: %s", trial, m.Name, err, node.String())
		}
	}
}

// bitsEqual compares two values for byte identity: equal kinds and bit-equal
// payloads. Unlike Value.Compare it distinguishes -0.0 from 0.0, Int from
// Date, and any two NaN payloads.
func bitsEqual(a, b algebra.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// Identical asserts byte identity of two relations: same length, same row
// order, bit-equal values. It returns a located error on the first
// divergence.
func Identical(want, got *storage.Relation) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("row count: oracle %d, got %d", want.Len(), got.Len())
	}
	for i := range want.Rows() {
		wt, gt := want.Rows()[i], got.Rows()[i]
		if len(wt) != len(gt) {
			return fmt.Errorf("row %d: arity %d vs %d", i, len(wt), len(gt))
		}
		for j := range wt {
			if !bitsEqual(wt[j], gt[j]) {
				return fmt.Errorf("row %d col %d: oracle %v, got %v", i, j, wt[j], gt[j])
			}
		}
	}
	return nil
}

// EqualSorted asserts set equality with identical counts via sorted
// renderings — the cross-configuration contract for aggregate outputs, whose
// row order follows Go map iteration.
func EqualSorted(want, got *storage.Relation) error {
	ws, gs := want.SortedStrings(), got.SortedStrings()
	if len(ws) != len(gs) {
		return fmt.Errorf("row count: oracle %d, got %d", len(ws), len(gs))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			return fmt.Errorf("sorted row %d: oracle %q, got %q", i, ws[i], gs[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Randomized schemas and data.

// colTypes is the type pool random schemas draw from.
var colTypes = []catalog.Type{catalog.Int, catalog.Float, catalog.String, catalog.Date}

// trickyFloats are the float payloads that distinguish a naive vectorized
// loop's float handling from Value.Compare's: NaN (a singleton ordered before every numeric), signed zeros
// (equal but not bit-equal), and ordinary values.
var trickyFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -3.25, 42, 99.5}

// RandValue draws a random value of the given type. With tricky=false floats
// are whole numbers and NaN-free (for aggregate inputs, where incremental
// float sums must stay exact).
func RandValue(rng *rand.Rand, t catalog.Type, tricky bool) algebra.Value {
	switch t {
	case catalog.Int:
		return algebra.NewInt(int64(rng.Intn(10)))
	case catalog.Date:
		return algebra.NewDate(int64(rng.Intn(6)))
	case catalog.Float:
		if !tricky {
			return algebra.NewFloat(float64(rng.Intn(50)))
		}
		return algebra.NewFloat(trickyFloats[rng.Intn(len(trickyFloats))])
	default:
		return algebra.NewString(string(rune('a' + rng.Intn(5))))
	}
}

// Table is one randomly generated relation registered in a catalog/database
// pair.
type Table struct {
	Name string
	Cols []catalog.Column
}

// QCol returns the qualified name of column i.
func (tb Table) QCol(i int) string { return tb.Name + "." + tb.Cols[i].Name }

// RandTable creates a table named name with nCols random columns and nRows
// random rows, registering it in cat and db. Column 0 is always Int (a
// reliable join key); the rest draw from the type pool.
func RandTable(rng *rand.Rand, cat *catalog.Catalog, db *storage.Database,
	name string, nCols, nRows int, tricky bool) Table {
	cols := make([]catalog.Column, nCols)
	cols[0] = catalog.Column{Name: "c0", Type: catalog.Int, Width: 8}
	for i := 1; i < nCols; i++ {
		cols[i] = catalog.Column{
			Name:  fmt.Sprintf("c%d", i),
			Type:  colTypes[rng.Intn(len(colTypes))],
			Width: 8,
		}
	}
	t := &catalog.Table{Name: name, Columns: cols, PrimaryKey: []string{"c0"},
		Stats: catalog.TableStats{Rows: int64(nRows)}}
	cat.AddTable(t)
	db.Create(name, algebra.TableSchema(t, name))
	rel := db.MustRelation(name)
	for r := 0; r < nRows; r++ {
		row := make(algebra.Tuple, nCols)
		for i, c := range cols {
			row[i] = RandValue(rng, c.Type, tricky)
		}
		rel.Insert(row)
	}
	return Table{Name: name, Cols: cols}
}

// RandPred builds a random conjunction over the table: one to three
// conjuncts, each column-vs-literal or column-vs-column with a random
// operator — deliberately including cross-class comparisons (int column vs
// string literal, float column vs date column, …) to exercise the dense
// kernels' class-ordering fast paths against the oracle's Value.Compare.
func RandPred(rng *rand.Rand, tb Table) algebra.Pred {
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	n := 1 + rng.Intn(3)
	conj := make([]algebra.Cmp, 0, n)
	for k := 0; k < n; k++ {
		op := ops[rng.Intn(len(ops))]
		ci := rng.Intn(len(tb.Cols))
		if rng.Intn(3) == 0 { // column vs column
			cj := rng.Intn(len(tb.Cols))
			conj = append(conj, algebra.Cmp{Op: op, L: algebra.C(tb.QCol(ci)), R: algebra.C(tb.QCol(cj))})
			continue
		}
		litType := tb.Cols[ci].Type
		if rng.Intn(4) == 0 { // cross-class literal
			litType = colTypes[rng.Intn(len(colTypes))]
		}
		conj = append(conj, algebra.CmpConst(tb.QCol(ci), op, RandValue(rng, litType, true)))
	}
	return algebra.Pred{Conjuncts: conj}
}
