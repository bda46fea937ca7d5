package shard

// Assignment and slicing properties: shard ranges tile the partition
// universe disjointly, and the per-shard slices of a relation partition its
// rows exactly once, ascending, with a correct global-index inverse.

import (
	"math/rand"
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

func TestDefaultPartitions(t *testing.T) {
	for _, c := range []struct{ shards, want int }{{0, 4}, {1, 4}, {2, 4}, {3, 6}, {8, 16}} {
		got := DefaultPartitions(c.shards)
		if got != c.want {
			t.Errorf("DefaultPartitions(%d) = %d, want %d", c.shards, got, c.want)
		}
		if a := (Assignment{Partitions: got, Shards: c.shards}).Norm(); a.Partitions != got {
			t.Errorf("DefaultPartitions(%d) = %d does not survive Assignment.Norm (%d)", c.shards, got, a.Partitions)
		}
	}
}
