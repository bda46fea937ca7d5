package exec

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

func twoColSchema(rel string) algebra.Schema {
	return algebra.Schema{
		{Rel: rel, Name: "k", Type: catalog.Int, Width: 8},
		{Rel: rel, Name: "v", Type: catalog.Int, Width: 8},
	}
}

func relOf(rel string, rows ...[2]int64) *storage.Relation {
	r := storage.NewRelation(twoColSchema(rel))
	for _, row := range rows {
		r.Insert(algebra.Tuple{algebra.NewInt(row[0]), algebra.NewInt(row[1])})
	}
	return r
}

// The hand-written operator cases below ran against the row operators until
// those moved to the equivtest oracle (which keeps its own copy of them in
// oracle_test.go); here they pin the same behaviour on the chained kernels.

func TestChainJoinEquiOnly(t *testing.T) {
	l := relOf("l", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{2, 21})
	r := relOf("r", [2]int64{2, 200}, [2]int64{3, 300})
	out := joinRows(l, r, algebra.And(algebra.Eq("l.k", "r.k")), false)
	if out.Len() != 2 {
		t.Fatalf("want 2 matches (both l-rows with k=2), got %d", out.Len())
	}
}

func TestChainJoinWithResidual(t *testing.T) {
	l := relOf("l", [2]int64{1, 10}, [2]int64{1, 30})
	r := relOf("r", [2]int64{1, 20})
	pred := algebra.And(
		algebra.Eq("l.k", "r.k"),
		algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.v")},
	)
	out := joinRows(l, r, pred, false)
	if out.Len() != 1 {
		t.Fatalf("residual l.v<r.v should keep only (10<20): got %d rows", out.Len())
	}
	if out.Rows()[0][1].I != 10 {
		t.Errorf("wrong surviving row: %v", out.Rows()[0])
	}
}

func TestChainJoinNoEquiFallsBackToNL(t *testing.T) {
	l := relOf("l", [2]int64{1, 1}, [2]int64{2, 2})
	r := relOf("r", [2]int64{5, 1}, [2]int64{6, 3})
	pred := algebra.And(algebra.Cmp{Op: algebra.GT, L: algebra.C("r.v"), R: algebra.C("l.v")})
	out := joinRows(l, r, pred, true)
	// pairs where r.v > l.v: (1,·)x(·,3): l.v=1 with r.v=3; l.v=2 with r.v=3. → 2
	if out.Len() != 2 {
		t.Fatalf("nested-loop fallback wrong: %d rows", out.Len())
	}
}

func TestChainJoinDuplicateMultiplicities(t *testing.T) {
	// Multiset semantics: duplicates multiply.
	l := relOf("l", [2]int64{1, 1}, [2]int64{1, 1})
	r := relOf("r", [2]int64{1, 2}, [2]int64{1, 2}, [2]int64{1, 2})
	out := joinRows(l, r, algebra.And(algebra.Eq("l.k", "r.k")), true)
	if out.Len() != 6 {
		t.Fatalf("2×3 duplicates should give 6 rows, got %d", out.Len())
	}
}

func TestChainMinusAndConcat(t *testing.T) {
	a := relOf("t", [2]int64{1, 1}, [2]int64{1, 1}, [2]int64{2, 2})
	b := relOf("t", [2]int64{1, 1}, [2]int64{3, 3})
	sch := a.Schema()
	u := chainConcat([]*Batch{batchOf(a), batchOf(b)}, sch).Materialize(sch)
	if u.Len() != 5 {
		t.Errorf("union all should concatenate: %d", u.Len())
	}
	m := chainMinus(batchOf(a), batchOf(b), sch).Materialize(sch)
	if m.Len() != 2 {
		t.Errorf("monus should remove one copy of (1,1): %d rows", m.Len())
	}
	// a unchanged (operators are non-destructive).
	if a.Len() != 3 {
		t.Errorf("input mutated")
	}
}

func TestChainDedup(t *testing.T) {
	a := relOf("t", [2]int64{1, 1}, [2]int64{1, 1}, [2]int64{2, 2})
	d := chainDedup(batchOf(a), a.Schema())
	if d.Len() != 2 {
		t.Errorf("dedup: %d rows", d.Len())
	}
}

func TestChainFilter(t *testing.T) {
	a := relOf("t", [2]int64{1, 5}, [2]int64{2, 15}, [2]int64{3, 25})
	got := chainFilter(batchOf(a), algebra.And(algebra.CmpConst("t.v", algebra.GT, algebra.NewInt(10))))
	if got.Len() != 2 {
		t.Errorf("filter: %d rows", got.Len())
	}
}

func TestSplitJoinPred(t *testing.T) {
	ls, rs := twoColSchema("l"), twoColSchema("r")
	pred := algebra.And(
		algebra.Eq("l.k", "r.k"),
		algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.v")},
		algebra.Eq("r.v", "l.v"), // reversed sides still usable as hash key
	)
	lc, rc, residual := splitJoinPred(pred, ls, rs)
	if len(lc) != 2 || len(rc) != 2 {
		t.Errorf("2 hash keys expected, got %d/%d", len(lc), len(rc))
	}
	if len(residual) != 1 {
		t.Errorf("1 residual conjunct expected, got %d", len(residual))
	}
}

func TestProjectToMissingColumnPanics(t *testing.T) {
	a := relOf("t", [2]int64{1, 1})
	defer func() {
		if recover() == nil {
			t.Errorf("missing column should panic")
		}
	}()
	projectTo(a, algebra.Schema{{Rel: "x", Name: "nope", Type: catalog.Int}})
}

func TestAggTableMinMaxDirtyDetection(t *testing.T) {
	sch := twoColSchema("t")
	at := NewAggTable(sch,
		[]algebra.ColRef{algebra.C("t.k")},
		[]algebra.AggSpec{{Func: algebra.Max, Col: algebra.C("t.v")}},
		algebra.Schema{sch[0], {Rel: "agg", Name: "max_v", Type: catalog.Float, Width: 8}})
	at.Absorb(relOf("t", [2]int64{1, 10}, [2]int64{1, 20}), 1)
	// Deleting a non-extremum is clean; deleting the max is dirty.
	if dirty := at.Absorb(relOf("t", [2]int64{1, 10}), -1); dirty {
		t.Errorf("deleting non-max should not be dirty")
	}
	if dirty := at.Absorb(relOf("t", [2]int64{1, 20}), -1); !dirty {
		t.Errorf("deleting the max must flag recomputation")
	}
}

func TestAggTableGroupDisappears(t *testing.T) {
	sch := twoColSchema("t")
	at := NewAggTable(sch,
		[]algebra.ColRef{algebra.C("t.k")},
		[]algebra.AggSpec{{Func: algebra.Count}},
		algebra.Schema{sch[0], {Rel: "agg", Name: "count", Type: catalog.Int, Width: 8}})
	batch := relOf("t", [2]int64{1, 1})
	at.Absorb(batch, 1)
	if at.Rows().Len() != 1 {
		t.Fatalf("one group expected")
	}
	at.Absorb(batch, -1)
	if at.Rows().Len() != 0 {
		t.Errorf("emptied group should vanish, got %d", at.Rows().Len())
	}
}
