package exec

// Differential property test of the prefiltered hash join: chainJoin — flat
// build table behind the bit filter, stored side read through its hash
// column — against the plain nested loop (naiveJoin), byte for byte in
// emission order, on the inputs the filter and the table could get wrong:
// key columns whose equality and bit pattern disagree (0.0 / -0.0, NaNs),
// duplicates with multiplicity on both sides, an empty side, a build side
// from far smaller than the probe side (filter engaged) to larger (filter
// must stand down), and forged hash columns that put every key on one hash —
// one filter bit, one chain — or on two. Seeds live in
// testdata/prefilter_seeds.txt; pin a failing one by adding a line.

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/storage"
)

func prefilterSeeds(t *testing.T) []int64 {
	t.Helper()
	f, err := os.Open("testdata/prefilter_seeds.txt")
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
		t.Fatal("no seeds in testdata/prefilter_seeds.txt")
	}
	return seeds
}

// floatKeyRel draws n rows (key, payload) whose keys repeat heavily and
// include values that are Equal without being bit-identical.
func floatKeyRel(rng *rand.Rand, rel string, n int) *storage.Relation {
	keys := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 1, 2, 3, 4}
	r := storage.NewRelation(algebra.Schema{{Rel: rel, Name: "k"}, {Rel: rel, Name: "p"}})
	for i := 0; i < n; i++ {
		r.Append(algebra.Tuple{algebra.NewFloat(keys[rng.Intn(len(keys))]), algebra.NewInt(int64(i))})
	}
	return r
}

// withForgedHashes returns a copy of r whose key-hash column is forged(key
// hash): any function of the true hash keeps equal keys on equal hashes.
func withForgedHashes(r *storage.Relation, forged func(uint64) uint64) *storage.Relation {
	out := storage.NewRelation(r.Schema())
	out.AppendAll(r.Rows())
	h := make([]uint64, r.Len())
	for i, t := range r.Rows() {
		h[i] = forged(t.HashCols([]int{0}))
	}
	out.ColView().InstallKeyHashes([]int{0}, h)
	return out
}

func bitIdentical(t *testing.T, what string, want, got *storage.Relation) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for i, wt := range want.Rows() {
		for c, w := range wt {
			g := got.Rows()[i][c]
			if w.Kind != g.Kind || w.I != g.I || w.S != g.S || math.Float64bits(w.F) != math.Float64bits(g.F) {
				t.Fatalf("%s: row %d column %d is %v, want %v", what, i, c, g, w)
			}
		}
	}
}

func TestPrefilteredJoinMatchesNestedLoop(t *testing.T) {
	forgeries := map[string]func(uint64) uint64{
		"true hashes": func(h uint64) uint64 { return h },
		"one hash":    func(uint64) uint64 { return 0 },
		"two hashes":  func(h uint64) uint64 { return h >> 63 << 40 },
	}
	pred := algebra.And(algebra.Eq("l.k", "r.k"))
	for _, seed := range prefilterSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		nl := []int{0, 1, 5, 40}[rng.Intn(4)]
		nr := []int{0, 3, 40, 400}[rng.Intn(4)]
		l, r := floatKeyRel(rng, "l", nl), floatKeyRel(rng, "r", nr)
		for name, forged := range forgeries {
			fl, fr := withForgedHashes(l, forged), withForgedHashes(r, forged)
			for _, buildLeft := range []bool{true, false} {
				what := name + ", seed " + strconv.FormatInt(seed, 10)
				bitIdentical(t, what, naiveJoin(l, r, buildLeft, nil), joinRows(fl, fr, pred, buildLeft))
			}
		}
	}
}
