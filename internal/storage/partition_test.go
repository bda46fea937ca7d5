package storage

// Tests for the hash-partitioned storage layer: PartView coverage /
// invalidation / caching, array sharing through UnionCOW, and the parallel
// relation operations' byte-identity with their sequential twins. Run under -race in CI, so the worker fan-out is exercised for
// races as well as results.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
)

// forceParallel lowers the sequential-fallback threshold so small test
// inputs exercise the parallel paths, restoring it afterwards.
func forceParallel(t *testing.T) {
	t.Helper()
	old := ParMinRows
	ParMinRows = 0
	t.Cleanup(func() { ParMinRows = old })
}

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
	forceParallel(t)
	r := randRel(rand.New(rand.NewSource(3)), 300)
	for _, parts := range []int{1, 4, 7} {
		pv := r.PartView(Par{Partitions: parts, Workers: 3})
		if pv.Parts() != parts {
			t.Fatalf("Parts() = %d, want %d", pv.Parts(), parts)
		}
		seen := make([]bool, r.Len())
		for p := 0; p < parts; p++ {
			last := int32(-1)
			for _, i := range pv.Rows(p) {
				if i <= last {
					t.Fatalf("parts=%d: partition %d indexes not ascending", parts, p)
				}
				last = i
				if seen[i] {
					t.Fatalf("parts=%d: row %d in two partitions", parts, i)
				}
				seen[i] = true
				if h := r.Rows()[i].Hash(); h != pv.Hash(int(i)) || int(h%uint64(parts)) != p {
					t.Fatalf("parts=%d: row %d misplaced or hash mismatch", parts, i)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("parts=%d: row %d unassigned", parts, i)
			}
		}
	}
}

func TestPartViewCachingAndInvalidation(t *testing.T) {
	forceParallel(t)
	r := randRel(rand.New(rand.NewSource(4)), 100)
	par := Par{Partitions: 4}
	pv := r.PartView(par)
	if r.PartView(par) != pv {
		t.Fatalf("second PartView at same count should return the cached view")
	}
	if r.PartView(Par{Partitions: 5}) == pv {
		t.Fatalf("PartView at a different count must rebuild")
	}
	r.PartView(par)
	r.Append(algebra.Tuple{algebra.NewInt(1), algebra.NewInt(2)})
	pv2 := r.PartView(par)
	if pv2 == pv {
		t.Fatalf("mutation must invalidate the cached view")
	}
	total := 0
	for p := 0; p < 4; p++ {
		total += len(pv2.Rows(p))
	}
	if total != r.Len() {
		t.Fatalf("rebuilt view covers %d rows, want %d", total, r.Len())
	}
}

func TestUnionCOWSharesPartitionLists(t *testing.T) {
	forceParallel(t)
	r := randRel(rand.New(rand.NewSource(5)), 200)
	const parts = 8
	pv := r.PartView(Par{Partitions: parts})
	before := make([][]int32, parts)
	for p := range before {
		before[p] = append([]int32(nil), pv.idx[p]...)
	}

	// A one-row delta touches exactly one partition.
	add := NewRelation(r.Schema())
	one := algebra.Tuple{algebra.NewInt(999), algebra.NewInt(1)}
	add.Insert(one)
	touched := int(one.Hash() % uint64(parts))

	out := UnionCOW(r, add)
	opv := out.part.Load()
	if opv == nil {
		t.Fatalf("UnionCOW dropped the partition view instead of extending it")
	}
	for p := 0; p < parts; p++ {
		want := len(pv.idx[p])
		if p == touched {
			want++
		} else if want > 0 && &pv.idx[p][0] != &opv.idx[p][0] {
			t.Fatalf("untouched partition %d should share the base list", p)
		}
		if len(opv.idx[p]) != want {
			t.Fatalf("partition %d: %d indexes, want %d", p, len(opv.idx[p]), want)
		}
	}
	viewMatchesRebuild(t, "UnionCOW", out)
	// The base relation's own view must be untouched, list for list.
	if got := r.part.Load(); got != pv {
		t.Fatalf("UnionCOW replaced the base relation's cached view")
	}
	for p := range before {
		if len(pv.idx[p]) != len(before[p]) {
			t.Fatalf("base partition %d changed length", p)
		}
		for k, id := range before[p] {
			if pv.idx[p][k] != id {
				t.Fatalf("base partition %d rewritten at %d", p, k)
			}
		}
	}
}

func rowsEqual(t *testing.T, what string, a, b *Relation) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d rows", what, a.Len(), b.Len())
	}
	for i := range a.rows {
		if !a.rows[i].Equal(b.rows[i]) {
			t.Fatalf("%s: rows differ at %d", what, i)
		}
	}
}

func TestParMinusAndSubtractMatchSequential(t *testing.T) {
	forceParallel(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randRel(rng, 150+rng.Intn(100))
		sub := randRel(rng, 60)
		for _, parts := range []int{1, 3, 4, 7} {
			par := Par{Partitions: parts, Workers: 4}

			wantCow := MinusCOW(l, sub)
			gotCow := ParMinusCOW(l, sub, par)
			rowsEqual(t, "ParMinusCOW", wantCow, gotCow)

			seq := l.Clone()
			seq.SubtractAll(sub)
			parRel := l.Clone()
			parRel.ParSubtractAll(sub, par)
			rowsEqual(t, "ParSubtractAll", seq, parRel)

			if parts > 1 {
				// The minus paths carry the partition view by compaction (no
				// rehash); it must agree with a fresh build.
				viewMatchesRebuild(t, "ParMinusCOW", gotCow)
				viewMatchesRebuild(t, "ParSubtractAll", parRel)
			}
		}
	}
}

// viewMatchesRebuild asserts a relation's cached partition view equals a
// from-scratch build over its rows.
func viewMatchesRebuild(t *testing.T, what string, r *Relation) {
	t.Helper()
	pv := r.part.Load()
	if pv == nil {
		t.Fatalf("%s: derived partition view missing", what)
	}
	fresh := buildPartView(r.rows, Par{Partitions: pv.Parts()}.Norm())
	for i := range fresh.hashes {
		if fresh.hashes[i] != pv.hashes[i] {
			t.Fatalf("%s: carried hash diverges at row %d", what, i)
		}
	}
	for p := range fresh.idx {
		if len(fresh.idx[p]) != len(pv.idx[p]) {
			t.Fatalf("%s: partition %d has %d indexes, want %d",
				what, p, len(pv.idx[p]), len(fresh.idx[p]))
		}
		for k := range fresh.idx[p] {
			if fresh.idx[p][k] != pv.idx[p][k] {
				t.Fatalf("%s: partition %d index diverges at %d", what, p, k)
			}
		}
	}
}

func TestParCloneMatchesClone(t *testing.T) {
	forceParallel(t)
	r := randRel(rand.New(rand.NewSource(11)), 180)
	c := r.ParClone(Par{Partitions: 4, Workers: 4})
	rowsEqual(t, "ParClone", r.Clone(), c)
	// Deep copy: mutating the clone's tuple storage must not reach r.
	c.rows[0][0] = algebra.NewInt(-777)
	if r.rows[0].Equal(c.rows[0]) {
		t.Fatalf("ParClone aliased tuple storage")
	}
}

func TestRunWorkersPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected the worker panic to re-raise on the caller")
		}
	}()
	RunWorkers(4, func(w int) {
		if w == 2 {
			panic("boom")
		}
	})
}

func TestMorselRangesPartitionExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 97, 100} {
		for _, parts := range []int{1, 3, 7, 16} {
			rs := MorselRanges(n, parts)
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
