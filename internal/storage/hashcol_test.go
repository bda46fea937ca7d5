package storage

// Tests for the whole-tuple hash column: coverage, caching and invalidation,
// and array sharing through UnionCOW. Per-partition coverage, which the
// shard layer derives from the column, is TestSliceOfPartitionsExactlyOnce
// (internal/shard).

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
)

// randRel builds a relation with duplicates and a skewed value range.
func randRel(rng *rand.Rand, n int) *Relation {
	schema := algebra.Schema{{Rel: "t", Name: "a"}, {Rel: "t", Name: "b"}}
	r := NewRelation(schema)
	for i := 0; i < n; i++ {
		r.Insert(algebra.Tuple{
			algebra.NewInt(int64(rng.Intn(n/4 + 1))),
			algebra.NewInt(int64(rng.Intn(8))),
		})
	}
	return r
}

func TestPartViewCoversEveryRowOnce(t *testing.T) {
	r := randRel(rand.New(rand.NewSource(3)), 300)
	hs := r.Hashes()
	if len(hs) != r.Len() {
		t.Fatalf("hash column of %d, want %d", len(hs), r.Len())
	}
	for i, row := range r.Rows() {
		if hs[i] != row.Hash() {
			t.Fatalf("row %d: hash %#x, want Tuple.Hash %#x", i, hs[i], row.Hash())
		}
	}
}

func TestPartViewCachingAndInvalidation(t *testing.T) {
	r := randRel(rand.New(rand.NewSource(4)), 100)
	hv := r.hashView()
	if r.hashView() != hv || &r.Hashes()[0] != &hv.hashes[0] {
		t.Fatalf("second Hashes should return the cached column")
	}
	r.Append(algebra.Tuple{algebra.NewInt(1), algebra.NewInt(2)})
	if r.part.Load() != nil {
		t.Fatalf("mutation must invalidate the cached column")
	}
	if hs := r.Hashes(); len(hs) != r.Len() || r.hashView() == hv {
		t.Fatalf("rebuilt column covers %d rows, want %d", len(hs), r.Len())
	}
}

func TestUnionCOWSharesPartitionLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randRel(rng, 200)
	r.Hashes()
	r.InsertAllExtend(randRel(rng, 10)) // spare capacity behind the column
	hv := r.part.Load()
	before := append([]uint64(nil), hv.hashes...)

	add := NewRelation(r.Schema())
	add.Insert(algebra.Tuple{algebra.NewInt(999), algebra.NewInt(1)})
	out := UnionCOW(r, add)
	ohv := out.part.Load()
	if ohv == nil {
		t.Fatalf("UnionCOW dropped the hash column instead of extending it")
	}
	if len(ohv.hashes) != len(before)+1 {
		t.Fatalf("child column of %d hashes, want %d", len(ohv.hashes), len(before)+1)
	}
	if &ohv.hashes[0] != &hv.hashes[0] {
		t.Fatalf("the first child should share the parent's hash array")
	}
	viewMatchesRebuild(t, "UnionCOW", out)
	// The base relation's own column must be untouched, hash for hash.
	if got := r.part.Load(); got != hv {
		t.Fatalf("UnionCOW replaced the base relation's cached column")
	}
	if len(hv.hashes) != len(before) {
		t.Fatalf("base column changed length")
	}
	for i, h := range before {
		if hv.hashes[i] != h {
			t.Fatalf("base column rewritten at %d", i)
		}
	}
}

func rowsEqual(t *testing.T, what string, a, b *Relation) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d rows", what, a.Len(), b.Len())
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		if !ar[i].Equal(br[i]) {
			t.Fatalf("%s: rows differ at %d", what, i)
		}
	}
}

// viewMatchesRebuild asserts a relation's cached hash column equals a
// from-scratch hash of its rows, by ordinal.
func viewMatchesRebuild(t *testing.T, what string, r *Relation) {
	t.Helper()
	hv := r.part.Load()
	if hv == nil {
		t.Fatalf("%s: derived hash column missing", what)
	}
	if len(hv.hashes) != len(r.rows) {
		t.Fatalf("%s: hash column of %d, want %d", what, len(hv.hashes), len(r.rows))
	}
	for i, row := range r.rows {
		if hv.hashes[i] != row.Hash() {
			t.Fatalf("%s: carried hash diverges at row %d", what, i)
		}
	}
}
