package storage

// White-box tests for the hashed multiset representation: collision
// handling (forced via addHashed/removeHashed/countHashed), monus edge
// cases, duplicate-sensitive equality, and a property test checking that the
// hashed Counts agrees with the string-keyed implementation it replaced.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
)

// TestTupleCountsCollision forces two distinct tuples into the same hash
// bucket and checks that counts, removals and lookups stay separated by
// tuple equality.
func TestTupleCountsCollision(t *testing.T) {
	a := tup(1, "x")
	b := tup(2, "y")
	const h = uint64(42) // same forced hash for both

	tc := NewTupleCounts(0)
	tc.addHashed(h, a, 2)
	tc.addHashed(h, b, 1)

	if got := tc.countHashed(h, a); got != 2 {
		t.Errorf("count(a) = %d, want 2", got)
	}
	if got := tc.countHashed(h, b); got != 1 {
		t.Errorf("count(b) = %d, want 1", got)
	}
	if tc.Len() != 3 {
		t.Errorf("Len = %d, want 3", tc.Len())
	}
	if !tc.removeHashed(h, b) {
		t.Errorf("remove(b) should succeed")
	}
	if tc.removeHashed(h, b) {
		t.Errorf("remove(b) twice should fail: multiplicity was 1")
	}
	if got := tc.countHashed(h, a); got != 2 {
		t.Errorf("removing b must not affect a: count(a) = %d, want 2", got)
	}
}

// TestSubtractAllMonusEdgeCases exercises the monus corners: subtracting
// more copies than present, subtracting from empty, and subtracting an
// entirely disjoint multiset.
func TestSubtractAllMonusEdgeCases(t *testing.T) {
	// More copies removed than present: clamps at zero, never negative.
	r := NewRelation(sch())
	r.Insert(tup(1, "x"))
	d := NewRelation(sch())
	d.Insert(tup(1, "x"))
	d.Insert(tup(1, "x"))
	d.Insert(tup(1, "x"))
	r.SubtractAll(d)
	if r.Len() != 0 {
		t.Errorf("over-subtraction should empty the relation, Len = %d", r.Len())
	}

	// Subtracting from empty is a no-op.
	empty := NewRelation(sch())
	empty.SubtractAll(d)
	if empty.Len() != 0 {
		t.Errorf("subtract from empty: Len = %d", empty.Len())
	}

	// Disjoint multisets: nothing removed.
	r2 := NewRelation(sch())
	r2.Insert(tup(7, "q"))
	r2.Insert(tup(8, "r"))
	r2.SubtractAll(d)
	if r2.Len() != 2 {
		t.Errorf("disjoint subtraction should remove nothing, Len = %d", r2.Len())
	}

	// Self-subtraction empties exactly.
	r3 := NewRelation(sch())
	r3.Insert(tup(1, "x"))
	r3.Insert(tup(1, "x"))
	r3.Insert(tup(2, "y"))
	r3.SubtractAll(r3.Clone())
	if r3.Len() != 0 {
		t.Errorf("self-subtraction should empty, Len = %d", r3.Len())
	}
}

// TestEqualMultisetDuplicates checks that equality is multiplicity-exact.
func TestEqualMultisetDuplicates(t *testing.T) {
	a := NewRelation(sch())
	b := NewRelation(sch())
	for i := 0; i < 3; i++ {
		a.Insert(tup(1, "x"))
	}
	a.Insert(tup(2, "y"))
	// Same distinct tuples, different multiplicities.
	b.Insert(tup(1, "x"))
	b.Insert(tup(2, "y"))
	b.Insert(tup(2, "y"))
	b.Insert(tup(2, "y"))
	if EqualMultiset(a, b) {
		t.Errorf("same support, different multiplicities: must differ")
	}
	b2 := NewRelation(sch())
	b2.Insert(tup(2, "y"))
	for i := 0; i < 3; i++ {
		b2.Insert(tup(1, "x"))
	}
	if !EqualMultiset(a, b2) {
		t.Errorf("equal multisets in different order must compare equal")
	}
}

// stringKey reimplements the retired string-keyed tuple rendering, as the
// reference for the agreement property test.
func stringKey(t algebra.Tuple) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// TestHashedCountsAgreesWithStringKeyed is the property test: on random
// multisets (ints, floats, dates, strings, duplicates), the hashed Counts
// reports exactly the multiplicities of the old string-keyed implementation.
func TestHashedCountsAgreesWithStringKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := algebra.Schema{
		{Rel: "t", Name: "i", Width: 8},
		{Rel: "t", Name: "f", Width: 8},
		{Rel: "t", Name: "s", Width: 8},
	}
	letters := []string{"", "a", "b", "ab", "ba", "a\x1fb"}
	for trial := 0; trial < 100; trial++ {
		r := NewRelation(schema)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			r.Insert(algebra.Tuple{
				algebra.NewInt(int64(rng.Intn(6))),
				algebra.NewFloat(float64(rng.Intn(4)) / 2),
				algebra.NewString(letters[rng.Intn(len(letters))]),
			})
		}
		want := make(map[string]int, r.Len())
		for _, tp := range r.Rows() {
			want[stringKey(tp)]++
		}
		got := r.Counts()
		if got.Len() != r.Len() {
			t.Fatalf("trial %d: Counts().Len() = %d, want %d", trial, got.Len(), r.Len())
		}
		for _, tp := range r.Rows() {
			if g, w := got.Count(tp), want[stringKey(tp)]; g != w {
				t.Fatalf("trial %d: count(%v) = %d, string-keyed reference %d",
					trial, tp, g, w)
			}
		}
	}
}
