package algebra

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestHashSpreadsLowBits holds the low bits of Tuple.Hash to a random
// function's on key shapes the engine stores. Two consumers read only those
// bits: the tuple index keys its slots on uint32(h), and shard.SliceOf
// assigns a row to partition h mod P. On each input of 2^20 tuples the
// distinct uint32 tags must be within 2× of the birthday expectation, and
// every residue mod P must hold its 1/P share within five standard
// deviations of a random function's count: 0.5 % of the share at P = 2,
// 0.9 % at P = 4 and 1.9 % at P = 16, where a flat 1 % would be 2.6
// deviations and fail a random function on one of some hundred buckets. A
// fold that lets a word's low bits through unmixed fails both: the float64
// image of a small integer has its low 32 bits all zero.
func TestHashSpreadsLowBits(t *testing.T) {
	const n = 1 << 20
	inputs := []struct {
		name string
		row  func(i int) Tuple
	}{
		{"int", func(i int) Tuple { return Tuple{NewInt(int64(i))} }},
		{"int,int mod 7", func(i int) Tuple { return Tuple{NewInt(int64(i)), NewInt(int64(i % 7))} }},
		{"Customer#", func(i int) Tuple { return Tuple{NewString(fmt.Sprintf("Customer#%09d", i))} }},
		{"date,float", func(i int) Tuple { return Tuple{NewDate(int64(i)), NewFloat(float64(i) / 100)} }},
	}
	// Expected colliding tags when n keys land in 2^32 slots uniformly.
	const m = float64(1 << 32)
	birthday := n - m*(1-math.Pow(1-1/m, n))
	hs := make([]uint64, n)
	tags := make([]uint32, n)
	for _, in := range inputs {
		for i := range hs {
			hs[i] = in.row(i).Hash()
			tags[i] = uint32(hs[i])
		}
		slices.Sort(tags)
		if lost := float64(n - len(slices.Compact(tags))); lost > 2*birthday {
			t.Errorf("%s: %.0f of %d uint32 tags collide, birthday expectation %.0f", in.name, lost, n, birthday)
		}
		for _, P := range []uint64{2, 3, 4, 16} {
			counts := make([]int, P)
			for _, h := range hs {
				counts[h%P]++
			}
			share := float64(n) / float64(P)
			tol := 5 * math.Sqrt(share*(1-1/float64(P)))
			worst := 0
			for r, c := range counts {
				if math.Abs(float64(c)-share) > math.Abs(float64(counts[worst])-share) {
					worst = r
				}
			}
			if c := counts[worst]; math.Abs(float64(c)-share) > tol {
				t.Errorf("%s: h mod %d = %d holds %d rows, want %.0f ± %.0f", in.name, P, worst, c, share, tol)
			}
		}
	}
}
