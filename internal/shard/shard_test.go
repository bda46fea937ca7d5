package shard

// Assignment and slicing properties: shard ranges tile the partition
// universe disjointly, and the per-shard slices of a relation partition its
// live rows exactly once, ascending, with a correct global-index inverse, on
// every version a refresh lineage derives.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

func TestAssignmentRangesTile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 200; it++ {
		a := Assignment{Partitions: rng.Intn(40) - 4, Shards: rng.Intn(12) - 2}
		norm := a.Norm()
		if norm.Shards < 1 || norm.Partitions < norm.Shards {
			t.Fatalf("Norm(%+v) = %+v violates invariants", a, norm)
		}
		ranges := a.Ranges()
		if len(ranges) != norm.Shards {
			t.Fatalf("%+v: %d ranges for %d shards", norm, len(ranges), norm.Shards)
		}
		next := 0
		for s, rg := range ranges {
			if rg[0] != next {
				t.Fatalf("%+v: range %d starts at %d, want %d (gap or overlap)", norm, s, rg[0], next)
			}
			if rg[1] < rg[0] {
				t.Fatalf("%+v: range %d inverted", norm, s)
			}
			next = rg[1]
		}
		if next != norm.Partitions {
			t.Fatalf("%+v: ranges cover [0,%d), want [0,%d)", norm, next, norm.Partitions)
		}
	}
}

// randRelation builds a relation with random int/string rows.
func randRelation(rng *rand.Rand, n int) *storage.Relation {
	schema := algebra.Schema{
		{Rel: "t", Name: "a", Type: catalog.Int, Width: 8},
		{Rel: "t", Name: "b", Type: catalog.String, Width: 8},
	}
	rel := storage.NewRelation(schema)
	for i := 0; i < n; i++ {
		rel.Insert(algebra.Tuple{
			algebra.NewInt(int64(rng.Intn(50))),
			algebra.NewString(string(rune('a' + rng.Intn(26)))),
		})
	}
	return rel
}

func TestSliceOfPartitionsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for it := 0; it < 50; it++ {
		a := Assignment{Partitions: 1 + rng.Intn(16), Shards: 1 + rng.Intn(6)}.Norm()
		rel := randRelation(rng, rng.Intn(300))
		seen := make(map[int32]int)
		for _, rg := range a.Ranges() {
			s := SliceOf(rel, a, rg[0], rg[1])
			if len(s.Rows) != len(s.Idx) {
				t.Fatalf("slice rows/idx length mismatch")
			}
			for i, idx := range s.Idx {
				if i > 0 && s.Idx[i-1] >= idx {
					t.Fatalf("slice indexes not strictly ascending at %d", i)
				}
				seen[idx]++
				if !s.Rows[i].Equal(rel.Rows()[idx]) {
					t.Fatalf("slice row %d does not match relation row %d", i, idx)
				}
			}
		}
		if len(seen) != rel.Len() {
			t.Fatalf("slices cover %d of %d rows", len(seen), rel.Len())
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("row %d owned by %d shards", idx, n)
			}
		}
	}
}

// sliceRef is SliceOf's reference: the live ordinals whose Tuple.Hash mod P
// falls in [lo, hi), ascending, with the rows and the cached key hashes
// gathered through them (recomputed with Tuple.HashCols).
func sliceRef(rel *storage.Relation, P, lo, hi int) Slice {
	rows, _ := rel.Ordinals()
	var ref Slice
	for i, row := range rows {
		if p := int(row.Hash() % uint64(P)); rel.Live(i) && p >= lo && p < hi {
			ref.Idx = append(ref.Idx, int32(i))
			ref.Rows = append(ref.Rows, row)
		}
	}
	cols, hashes := rel.ColView().CachedKeys()
	for k, c := range cols {
		if len(hashes[k]) != len(rows) {
			continue
		}
		h := make([]uint64, len(ref.Rows))
		for i, row := range ref.Rows {
			h[i] = row.HashCols(c)
		}
		ref.HashCols = append(ref.HashCols, c)
		ref.Hashes = append(ref.Hashes, h)
	}
	return ref
}

// checkSlices asserts that SliceOf equals sliceRef on every shard's range of
// every assignment P ∈ {1, 3, 4, 16}, and that the slices tile rel's live
// rows exactly once.
func checkSlices(t *testing.T, what string, rel *storage.Relation) {
	t.Helper()
	for _, P := range []int{1, 3, 4, 16} {
		a := Assignment{Partitions: P, Shards: min(P, 3)}.Norm()
		seen := make(map[int32]bool)
		for _, rg := range a.Ranges() {
			got, want := SliceOf(rel, a, rg[0], rg[1]), sliceRef(rel, P, rg[0], rg[1])
			if len(got.Idx) != len(want.Idx) || len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s P=%d %v: %d ordinals and %d rows, want %d",
					what, P, rg, len(got.Idx), len(got.Rows), len(want.Idx))
			}
			for i, ord := range want.Idx {
				if got.Idx[i] != ord || !got.Rows[i].Equal(want.Rows[i]) {
					t.Fatalf("%s P=%d %v: entry %d is ordinal %d, want %d", what, P, rg, i, got.Idx[i], ord)
				}
				if seen[ord] {
					t.Fatalf("%s P=%d: ordinal %d in two slices", what, P, ord)
				}
				seen[ord] = true
			}
			if !reflect.DeepEqual(got.HashCols, want.HashCols) || len(got.Hashes) != len(want.Hashes) {
				t.Fatalf("%s P=%d %v: ships key columns %v, want %v", what, P, rg, got.HashCols, want.HashCols)
			}
			for k := range want.Hashes {
				if !slices.Equal(got.Hashes[k], want.Hashes[k]) {
					t.Fatalf("%s P=%d %v: shipped key hashes %v differ", what, P, rg, want.HashCols[k])
				}
			}
		}
		if len(seen) != rel.Len() {
			t.Fatalf("%s P=%d: slices cover %d of %d live rows", what, P, len(seen), rel.Len())
		}
	}
}

// TestSliceOfFollowsMergedVersions slices every version of a refresh
// lineage — insert-merge, a marked delete below the compaction threshold, a
// threshold compaction, and copy-on-write siblings of a published version —
// against the reference, so the hash column the merges carry slices exactly
// as a fresh hash would.
func TestSliceOfFollowsMergedVersions(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		what := func(step string) string { return fmt.Sprintf("seed %d %s", seed, step) }
		// some of the live rows of rel, n of them.
		pick := func(rel *storage.Relation, n int) *storage.Relation {
			sub := storage.NewRelation(rel.Schema())
			rows := rel.Rows()
			for _, i := range rng.Perm(len(rows))[:n] {
				sub.Insert(rows[i])
			}
			return sub
		}

		rel := randRelation(rng, 80+rng.Intn(300))
		rel.ColView().KeyHashes([]int{0}, storage.Par{}) // a key column the merges carry
		checkSlices(t, what("fresh"), rel)

		rel = rel.InsertAllExtend(randRelation(rng, 1+rng.Intn(60)))
		checkSlices(t, what("insert-merge"), rel)

		rel = rel.SubtractAllCompact(pick(rel, 1+rel.Len()/16))
		if len(rel.Hashes()) == rel.Len() {
			t.Fatalf("%s: the delete compacted instead of marking", what("marked delete"))
		}
		checkSlices(t, what("marked delete"), rel)

		rel = rel.InsertAllExtend(randRelation(rng, 1+rng.Intn(30)))
		checkSlices(t, what("insert over marks"), rel)

		rel = rel.SubtractAllCompact(pick(rel, rel.Len()/4))
		if len(rel.Hashes()) != rel.Len() {
			t.Fatalf("%s: %d dead rows left past the threshold", what("compaction"), len(rel.Hashes())-rel.Len())
		}
		checkSlices(t, what("compaction"), rel)

		rel = rel.SubtractAllCompact(pick(rel, 1+rel.Len()/16))
		storage.NewSnapshotStore().PublishState(storage.NewDatabase(), map[int]*storage.Relation{0: rel})
		first := storage.UnionCOW(rel, randRelation(rng, 1+rng.Intn(20)))  // claims the tail
		second := storage.UnionCOW(rel, randRelation(rng, 1+rng.Intn(20))) // copies
		minus := storage.MinusCOW(rel, pick(rel, 1+rel.Len()/20))
		first = first.InsertAllExtend(randRelation(rng, 1+rng.Intn(20)))
		checkSlices(t, what("published parent"), rel)
		checkSlices(t, what("first union sibling"), first)
		checkSlices(t, what("second union sibling"), second)
		checkSlices(t, what("minus sibling"), minus)
	}
}

func TestMorselRangesPartitionExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 97, 100} {
		for _, parts := range []int{1, 3, 7, 16} {
			rs := morselRanges(n, parts)
			next := 0
			for _, r := range rs {
				if r[0] != next || r[1] < r[0] {
					t.Fatalf("n=%d parts=%d: bad range %v", n, parts, r)
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: ranges cover %d", n, parts, next)
			}
		}
	}
}
