package storage

// Tests of the merge kernels: the prefiltered probe against plain unfiltered
// references on adversarial hash columns, and the sharing contract between
// relation versions — a byte reachable from one version is never rewritten by
// a merge that produces, or mutates, another.

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/algebra"
)

// propSeeds reads the property tests' seeds (one per line) from testdata, so a
// failing input found elsewhere is pinned by adding a line.
func propSeeds(t *testing.T) []int64 {
	t.Helper()
	f, err := os.Open("testdata/merge_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seeds []int64
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if s, err := strconv.ParseInt(sc.Text(), 10, 64); err == nil {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no seeds in testdata/merge_seeds.txt")
	}
	return seeds
}

// sameFilterWord returns n distinct hashes that all land in filter word 0 of a
// table built over n hashes for a probe side of probeLen rows.
func sameFilterWord(n, probeLen int) []uint64 {
	var probe ProbeTable
	probe.Build(make([]uint64, n), probeLen)
	out := make([]uint64, 0, n)
	for h := uint64(1); len(out) < n; h++ {
		if (h*hashMix)>>probe.fshift>>6 == 0 {
			out = append(out, h)
		}
	}
	return out
}

func TestProbeTableMatchesMap(t *testing.T) {
	for _, seed := range propSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		probeLen := []int{0, n / 2, n, 4 * n, 50 * n}[rng.Intn(5)]
		build := make([]uint64, n)
		switch seed % 4 {
		case 0: // well spread
			for i := range build {
				build[i] = rng.Uint64()
			}
		case 1: // every ordinal collides on one hash
			for i := range build {
				build[i] = 42
			}
		case 2: // few hashes, long chains
			for i := range build {
				build[i] = uint64(rng.Intn(4)) << 60
			}
		default: // every hash in one filter word
			if n > 0 && 4*n <= probeLen {
				build = sameFilterWord(n, probeLen)
			}
		}
		var tab ProbeTable
		tab.Build(build, probeLen)
		if engaged := tab.filter != nil; engaged != (n > 0 && filterMinRatio*n <= probeLen) {
			t.Fatalf("seed %d: filter engaged=%v at build %d, probe %d", seed, engaged, n, probeLen)
		}
		want := map[uint64][]int32{}
		for i, h := range build {
			want[h] = append(want[h], int32(i))
		}
		probes := append([]uint64{0, 42, ^uint64(0)}, build...)
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Uint64(), uint64(rng.Intn(4))<<60)
		}
		for _, h := range probes {
			var got []int32
			if tab.MayContain(h) {
				for i := tab.First(h); i >= 0; i = tab.Next(i) {
					got = append(got, i)
				}
			}
			if len(got) != len(want[h]) {
				t.Fatalf("seed %d: hash %#x: ordinals %v, want %v", seed, h, got, want[h])
			}
			for k := range got {
				if got[k] != want[h][k] {
					t.Fatalf("seed %d: hash %#x: ordinals %v, want %v (ascending)", seed, h, got, want[h])
				}
			}
		}
	}
}

// advRel draws n rows over a small domain (many duplicates) with the float
// payloads that equality and bit identity disagree on.
func advRel(rng *rand.Rand, n int) *Relation {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5}
	r := NewRelation(algebra.Schema{{Rel: "t", Name: "a"}, {Rel: "t", Name: "b"}})
	for i := 0; i < n; i++ {
		r.Insert(algebra.Tuple{algebra.NewInt(int64(rng.Intn(6))), algebra.NewFloat(floats[rng.Intn(len(floats))])})
	}
	return r
}

// TestMinusMatchesRowLoop drives the delete-merge kernel — through its entry
// points with the real tuple hash, and through match with forged hash
// columns that collide across distinct tuples — against SubtractAll's row
// loop, byte for byte in row order.
func TestMinusMatchesRowLoop(t *testing.T) {
	forceParallel(t) // ParMinRows = 0: every size takes the kernel and its parallel scan
	forged := []func(algebra.Tuple) uint64{
		func(algebra.Tuple) uint64 { return 7 },                // one hash for everything
		func(t algebra.Tuple) uint64 { return t.Hash() >> 63 }, // two hashes
		func(t algebra.Tuple) uint64 { return t.Hash() },
	}
	for _, seed := range propSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		r := advRel(rng, rng.Intn(120))
		sub := advRel(rng, []int{0, 3, 40, 200}[rng.Intn(4)]) // empty, tiny, absent rows, sub >= r
		for _, row := range r.Rows() {
			if rng.Intn(3) == 0 {
				sub.Insert(row) // present rows, some more often than r holds them
			}
		}
		want := r.Clone()
		want.SubtractAll(sub)
		same := func(what string, got []algebra.Tuple) {
			t.Helper()
			if len(got) != want.Len() {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, what, len(got), want.Len())
			}
			for i, row := range want.Rows() {
				if !bitsEqualTuple(row, got[i]) {
					t.Fatalf("seed %d %s: row %d differs from the row loop's", seed, what, i)
				}
			}
		}
		for _, parts := range []int{1, 4} {
			par := Par{Partitions: parts, Workers: parts}
			same("ParMinusCOW", ParMinusCOW(r, sub, par).Rows())
			in := r.Clone()
			in.ParSubtractAll(sub, par)
			same("ParSubtractAll", in.Rows())
			for fi, hash := range forged {
				hs, subHs := make([]uint64, r.Len()), make([]uint64, sub.Len())
				for i, row := range r.Rows() {
					hs[i] = hash(row)
				}
				for i, row := range sub.Rows() {
					subHs[i] = hash(row)
				}
				dead := new(minusScratch).match(hs, r.rows, subHs, sub.rows, par.Norm())
				same("match/forged"+strconv.Itoa(fi), compacted(r.rows, dead, false))
			}
		}
		same("MinusCOW", MinusCOW(r, sub).Rows())
	}
}

// version is a deep copy of everything a reader can reach from one relation
// version: rows, partition view, built columns and key hashes.
type version struct {
	rows   []algebra.Tuple
	hashes []uint64
	parts  [][]int32
	cols   []ColVec
	keys   [][]uint64
}

func snapshotOf(r *Relation, par Par) version {
	v := version{rows: r.Clone().rows}
	pv := r.PartView(par)
	for i := range r.rows {
		v.hashes = append(v.hashes, pv.Hash(i))
	}
	for p := 0; p < pv.Parts(); p++ {
		v.parts = append(v.parts, append([]int32(nil), pv.Rows(p)...))
	}
	cv := r.ColView()
	for c := range r.schema {
		col := cv.Col(c)
		v.cols = append(v.cols, ColVec{Rep: col.Rep, I: append([]int64(nil), col.I...),
			F: append([]float64(nil), col.F...), S: append([]string(nil), col.S...)})
	}
	_, hashes := cv.CachedKeys()
	for _, h := range hashes {
		v.keys = append(v.keys, append([]uint64(nil), h...))
	}
	return v
}

// unchanged asserts r still reads exactly as it did when v was taken.
func (v version) unchanged(t *testing.T, what string, r *Relation, par Par) {
	t.Helper()
	now := snapshotOf(r, par)
	if len(now.rows) != len(v.rows) || len(now.keys) < len(v.keys) {
		t.Fatalf("%s: %d rows and %d key columns, was %d and %d", what, len(now.rows), len(now.keys), len(v.rows), len(v.keys))
	}
	for i := range v.rows {
		if !bitsEqualTuple(v.rows[i], now.rows[i]) || v.hashes[i] != now.hashes[i] {
			t.Fatalf("%s: row %d or its hash was rewritten", what, i)
		}
		for c := range v.cols {
			a, b := v.cols[c], now.cols[c]
			if a.Rep != b.Rep || (a.Rep == RepInt && a.I[i] != b.I[i]) || (a.Rep == RepStr && a.S[i] != b.S[i]) ||
				(a.Rep == RepFloat && math.Float64bits(a.F[i]) != math.Float64bits(b.F[i])) {
				t.Fatalf("%s: column %d rewritten at row %d", what, c, i)
			}
		}
		for k := range v.keys {
			if v.keys[k][i] != now.keys[k][i] {
				t.Fatalf("%s: key hash column %d rewritten at row %d", what, k, i)
			}
		}
	}
	for p := range v.parts {
		if len(v.parts[p]) != len(now.parts[p]) {
			t.Fatalf("%s: partition %d changed length", what, p)
		}
		for k := range v.parts[p] {
			if v.parts[p][k] != now.parts[p][k] {
				t.Fatalf("%s: partition %d rewritten at %d", what, p, k)
			}
		}
	}
}

// warm builds every view of r, so merges carry all of them.
func warm(r *Relation, par Par) {
	r.PartView(par)
	cv := r.ColView()
	for c := range r.schema {
		cv.Col(c)
	}
	cv.KeyHashes([]int{0}, par)
}

func TestUnionCOWSiblingsAreIndependent(t *testing.T) {
	par := Par{Partitions: 4}
	rng := rand.New(rand.NewSource(3))
	// A parent with spare capacity behind every array: grown in place first.
	parent := advRel(rng, 300)
	warm(parent, par)
	parent.InsertAllExtend(advRel(rng, 10))
	was := snapshotOf(parent, par)

	addA, addB := advRel(rng, 7), advRel(rng, 9)
	a := UnionCOW(parent, addA) // wins the tail: writes behind the parent's rows
	b := UnionCOW(parent, addB) // finds it taken: copies
	if &a.rows[0] != &parent.rows[0] {
		t.Errorf("the first child should share the parent's row array")
	}
	if &b.rows[0] == &parent.rows[0] {
		t.Errorf("the second child must not share the parent's row array")
	}
	check := func(what string, got *Relation, add *Relation) {
		t.Helper()
		want := parent.Clone()
		want.InsertAll(add)
		rowsEqual(t, what, want, got)
		viewMatchesRebuild(t, what, got)
	}
	check("first child", a, addA)
	check("second child", b, addB)
	was.unchanged(t, "parent after two children", parent, par)

	// A stray append through a version's accessor reallocates: it cannot reach
	// the tail a sibling or child lives in.
	marker := algebra.Tuple{algebra.NewInt(-1), algebra.NewFloat(-1)}
	_ = append(parent.Rows(), marker)
	_ = append(b.Rows(), marker)
	check("first child after stray appends", a, addA)
	check("second child after stray appends", b, addB)

	// Grandchildren extend each chain on; everyone above stays put.
	wasA := snapshotOf(a, par)
	a2 := UnionCOW(a, addB)
	wantA2 := a.Clone()
	wantA2.InsertAll(addB)
	rowsEqual(t, "grandchild", wantA2, a2)
	wasA.unchanged(t, "first child after its own child", a, par)
	was.unchanged(t, "parent after a grandchild", parent, par)
}

// TestInPlaceMergesLeaveOtherVersionsAlone mixes the modes on purpose: a
// relation that shares arrays with another version must move off them before
// rewriting in place.
func TestInPlaceMergesLeaveOtherVersionsAlone(t *testing.T) {
	forceParallel(t)
	par := Par{Partitions: 4}
	rng := rand.New(rand.NewSource(4))
	parent := advRel(rng, 200)
	warm(parent, par)
	parent.InsertAllExtend(advRel(rng, 5))
	child := UnionCOW(parent, advRel(rng, 6))
	wasParent, wasChild := snapshotOf(parent, par), snapshotOf(child, par)

	sub := NewRelation(parent.schema)
	sub.AppendAll(parent.Rows()[:40])

	// The child compacts "in place": the parent's prefix is shared, so it must not move.
	c := child.Clone()
	c.SubtractAll(sub)
	child.ParSubtractAll(sub, par)
	rowsEqual(t, "child after in-place minus", c, child)
	wasParent.unchanged(t, "parent after the child's in-place minus", parent, par)

	// The parent appends and compacts in place: its old tail is the child's.
	child = UnionCOW(parent, advRel(rng, 6))
	wasChild = snapshotOf(child, par)
	parent.InsertAllExtend(advRel(rng, 8))
	wasChild.unchanged(t, "child after the parent's in-place extend", child, par)
	parent.ParSubtractAll(sub, par)
	wasChild.unchanged(t, "child after the parent's in-place minus", child, par)
	viewMatchesRebuild(t, "parent after mixed merges", parent)

	child = UnionCOW(parent, advRel(rng, 6))
	wasChild = snapshotOf(child, par)
	parent.Insert(algebra.Tuple{algebra.NewInt(9), algebra.NewFloat(9)})
	parent.SubtractAll(sub)
	wasChild.unchanged(t, "child after the parent's plain mutations", child, par)
}
