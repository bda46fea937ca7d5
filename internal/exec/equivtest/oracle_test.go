package equivtest

// Hand-written cases for the oracle's own operators: the reference every
// engine configuration is compared against has to be right by inspection.

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
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

func TestOracleHashJoinEquiOnly(t *testing.T) {
	l := relOf("l", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{2, 21})
	r := relOf("r", [2]int64{2, 200}, [2]int64{3, 300})
	out := hashJoin(l, r, algebra.And(algebra.Eq("l.k", "r.k")))
	if out.Len() != 2 {
		t.Fatalf("want 2 matches (both l-rows with k=2), got %d", out.Len())
	}
}

func TestOracleHashJoinWithResidual(t *testing.T) {
	l := relOf("l", [2]int64{1, 10}, [2]int64{1, 30})
	r := relOf("r", [2]int64{1, 20})
	pred := algebra.And(
		algebra.Eq("l.k", "r.k"),
		algebra.Cmp{Op: algebra.LT, L: algebra.C("l.v"), R: algebra.C("r.v")},
	)
	out := hashJoin(l, r, pred)
	if out.Len() != 1 {
		t.Fatalf("residual l.v<r.v should keep only (10<20): got %d rows", out.Len())
	}
	if out.Rows()[0][1].I != 10 {
		t.Errorf("wrong surviving row: %v", out.Rows()[0])
	}
}

func TestOracleHashJoinNoEquiFallsBackToNL(t *testing.T) {
	l := relOf("l", [2]int64{1, 1}, [2]int64{2, 2})
	r := relOf("r", [2]int64{5, 1}, [2]int64{6, 3})
	pred := algebra.And(algebra.Cmp{Op: algebra.GT, L: algebra.C("r.v"), R: algebra.C("l.v")})
	out := hashJoin(l, r, pred)
	// pairs where r.v > l.v: (1,·)x(·,3): l.v=1 with r.v=3; l.v=2 with r.v=3. → 2
	if out.Len() != 2 {
		t.Fatalf("nested-loop fallback wrong: %d rows", out.Len())
	}
}

func TestOracleHashJoinDuplicateMultiplicities(t *testing.T) {
	// Multiset semantics: duplicates multiply.
	l := relOf("l", [2]int64{1, 1}, [2]int64{1, 1})
	r := relOf("r", [2]int64{1, 2}, [2]int64{1, 2}, [2]int64{1, 2})
	out := hashJoin(l, r, algebra.And(algebra.Eq("l.k", "r.k")))
	if out.Len() != 6 {
		t.Fatalf("2×3 duplicates should give 6 rows, got %d", out.Len())
	}
}

func TestOracleMinusAndUnion(t *testing.T) {
	a := relOf("t", [2]int64{1, 1}, [2]int64{1, 1}, [2]int64{2, 2})
	b := relOf("t", [2]int64{1, 1}, [2]int64{3, 3})
	u := unionAll(a, b)
	if u.Len() != 5 {
		t.Errorf("union all should concatenate: %d", u.Len())
	}
	m := minus(a, b)
	if m.Len() != 2 {
		t.Errorf("monus should remove one copy of (1,1): %d rows", m.Len())
	}
	// a unchanged (operators are non-destructive).
	if a.Len() != 3 {
		t.Errorf("input mutated")
	}
}

func TestOracleDedup(t *testing.T) {
	a := relOf("t", [2]int64{1, 1}, [2]int64{1, 1}, [2]int64{2, 2})
	d := dedup(a)
	if d.Len() != 2 {
		t.Errorf("dedup: %d rows", d.Len())
	}
}

func TestOracleFilterRel(t *testing.T) {
	a := relOf("t", [2]int64{1, 5}, [2]int64{2, 15}, [2]int64{3, 25})
	got := filterRel(a, algebra.And(algebra.CmpConst("t.v", algebra.GT, algebra.NewInt(10))))
	if got.Len() != 2 {
		t.Errorf("filter: %d rows", got.Len())
	}
}

func TestOracleProjectTo(t *testing.T) {
	a := relOf("t", [2]int64{1, 5}, [2]int64{2, 15})
	got := projectTo(a, algebra.Schema{a.Schema()[1], a.Schema()[0]})
	if got.Len() != 2 || got.Rows()[1][0].I != 15 || got.Rows()[1][1].I != 2 {
		t.Errorf("column reorder broken: %v", got.Rows())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("missing column should panic")
		}
	}()
	projectTo(a, algebra.Schema{{Rel: "x", Name: "nope", Type: catalog.Int}})
}

func TestOracleAggregate(t *testing.T) {
	in := relOf("t", [2]int64{1, 10}, [2]int64{2, 5}, [2]int64{1, 30})
	op := &dag.Op{
		Kind:    dag.OpAggregate,
		GroupBy: []algebra.ColRef{algebra.C("t.k")},
		Aggs: []algebra.AggSpec{
			{Func: algebra.Count},
			{Func: algebra.Sum, Col: algebra.C("t.v")},
			{Func: algebra.Avg, Col: algebra.C("t.v")},
			{Func: algebra.Min, Col: algebra.C("t.v")},
			{Func: algebra.Max, Col: algebra.C("t.v")},
		},
	}
	out := aggregate(in, op, algebra.Schema{in.Schema()[0],
		{Name: "count"}, {Name: "sum"}, {Name: "avg"}, {Name: "min"}, {Name: "max"}})
	if out.Len() != 2 {
		t.Fatalf("want 2 groups, got %d", out.Len())
	}
	g1 := out.Rows()[0] // groups come out in first-seen order
	if g1[0].I != 1 || g1[1].I != 2 || g1[2].F != 40 || g1[3].F != 20 || g1[4].F != 10 || g1[5].F != 30 {
		t.Errorf("group k=1: %v", g1)
	}
}
