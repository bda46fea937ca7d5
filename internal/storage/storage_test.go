package storage

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

func sch() algebra.Schema {
	return algebra.Schema{
		{Rel: "t", Name: "a", Type: catalog.Int, Width: 8},
		{Rel: "t", Name: "b", Type: catalog.String, Width: 8},
	}
}

func tup(a int64, b string) algebra.Tuple {
	return algebra.Tuple{algebra.NewInt(a), algebra.NewString(b)}
}

func TestInsertAndLen(t *testing.T) {
	r := NewRelation(sch())
	r.Insert(tup(1, "x"))
	r.Insert(tup(1, "x")) // duplicate allowed
	r.Insert(tup(2, "y"))
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if got := r.Counts().Count(tup(1, "x")); got != 2 {
		t.Errorf("duplicate multiplicity = %d, want 2", got)
	}
}

func TestInsertArityPanics(t *testing.T) {
	r := NewRelation(sch())
	defer func() {
		if recover() == nil {
			t.Errorf("wrong arity should panic")
		}
	}()
	r.Insert(algebra.Tuple{algebra.NewInt(1)})
}

func TestSubtractAllMultisetSemantics(t *testing.T) {
	r := NewRelation(sch())
	r.Insert(tup(1, "x"))
	r.Insert(tup(1, "x"))
	r.Insert(tup(2, "y"))

	d := NewRelation(sch())
	d.Insert(tup(1, "x"))
	d.Insert(tup(3, "z")) // absent: ignored

	r.SubtractAll(d)
	if r.Len() != 2 {
		t.Fatalf("after subtract Len = %d, want 2", r.Len())
	}
	if r.Counts().Count(tup(1, "x")) != 1 {
		t.Errorf("exactly one copy of (1,x) should remain")
	}
}

func TestEqualMultiset(t *testing.T) {
	a := NewRelation(sch())
	b := NewRelation(sch())
	a.Insert(tup(1, "x"))
	a.Insert(tup(2, "y"))
	b.Insert(tup(2, "y"))
	b.Insert(tup(1, "x"))
	if !EqualMultiset(a, b) {
		t.Errorf("order should not matter")
	}
	b.Insert(tup(1, "x"))
	if EqualMultiset(a, b) {
		t.Errorf("multiplicities differ")
	}
}

func TestUnionThenSubtractRoundTrip(t *testing.T) {
	// Property: (R ∪ S) − S == R for random multisets (monus with S ⊆ R∪S).
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		base := NewRelation(sch())
		extra := NewRelation(sch())
		for i := 0; i < r.Intn(30); i++ {
			base.Insert(tup(int64(r.Intn(5)), "x"))
		}
		for i := 0; i < r.Intn(30); i++ {
			extra.Insert(tup(int64(r.Intn(5)), "x"))
		}
		combined := base.Clone()
		combined.InsertAll(extra)
		combined.SubtractAll(extra)
		if !EqualMultiset(combined, base) {
			t.Fatalf("round trip failed on trial %d", trial)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewRelation(sch())
	a.Insert(tup(1, "x"))
	b := a.Clone()
	b.Rows()[0][0] = algebra.NewInt(99)
	if a.Rows()[0][0].I != 1 {
		t.Errorf("clone aliased tuples")
	}
}

func TestDatabaseDeltaLifecycle(t *testing.T) {
	db := NewDatabase()
	db.Create("t", sch())
	db.MustRelation("t").Insert(tup(1, "x"))
	db.LogInsert("t", tup(2, "y"))
	db.LogDelete("t", tup(1, "x"))

	if db.Delta("t").Empty() {
		t.Fatalf("delta should be pending")
	}
	db.ApplyInserts("t")
	if db.MustRelation("t").Len() != 2 {
		t.Errorf("insert not applied")
	}
	if db.Delta("t").Plus.Len() != 0 {
		t.Errorf("δ+ should be cleared after apply")
	}
	db.ApplyDeletes("t")
	if db.MustRelation("t").Len() != 1 {
		t.Errorf("delete not applied")
	}
	if db.Delta("t").Minus.Len() != 0 {
		t.Errorf("δ− should be cleared after apply")
	}
}

func TestDatabaseDuplicateCreatePanics(t *testing.T) {
	db := NewDatabase()
	db.Create("t", sch())
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate Create should panic")
		}
	}()
	db.Create("t", sch())
}

func TestDatabaseNamesSorted(t *testing.T) {
	db := NewDatabase()
	db.Create("zeta", sch())
	db.Create("alpha", sch())
	got := db.Names()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("Names = %v", got)
	}
}
