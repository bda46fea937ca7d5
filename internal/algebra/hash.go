package algebra

import (
	"math"
	"math/bits"

	"repro/internal/catalog"
)

// Typed 64-bit hashing for values and tuples, with no allocation. This is the
// single hashing substrate shared by the storage multiset maps, the
// hash-join/dedup/aggregation operators, and hash indexes — replacing ad-hoc
// string rendering on every hot path.
//
// The state advances a 64-bit word at a time through the "mum" fold of
// wyhash: fold(h, w) multiplies h^w by a 64-bit constant into a 128-bit
// product and returns its high word XOR its low word. A numeric value is one
// fold; a string is one fold for its tag and length plus one per 8 bytes.
// Taking the high word matters: the tuple index keys on uint32(h) and the
// shard slicer on h mod P, and the float64 image of a small integer has all
// of its low bits zero, which a plain (h^w)*prime fold would pass through
// to the low bits of h unchanged.
//
// The hash is consistent with Equal: values that compare equal hash equal.
// Because Compare places all numeric kinds (Int/Float/Date) in one class and
// compares them numerically, numeric values hash through their float64 image
// rather than their kind tag.

const (
	hashSeed uint64 = 0xe7037ed1a0b428db
	hashMul  uint64 = 0xa0761d6478bd642f

	hashTagNumeric uint64 = 0x8ebc6af09c88c6e3
	hashTagString  uint64 = 0x589965cc75374cc3
)

// fold mixes one 64-bit word into the running state.
func fold(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, hashMul)
	return hi ^ lo
}

// Hash returns the 64-bit hash of a single value.
func (v Value) Hash() uint64 { return v.HashInto(hashSeed) }

// HashInto folds the value into a running hash state (tag first, then
// payload), enabling allocation-free multi-column hashes. A numeric value
// folds its float64 image once, without a call; a string folds out of line,
// in hashString.
func (v Value) HashInto(h uint64) uint64 {
	if v.Kind == catalog.String {
		return hashString(h, v.S)
	}
	b := math.Float64bits(float64(v.I))
	if v.Kind == catalog.Float {
		b = floatBits(v.F)
	}
	return fold(h^hashTagNumeric, b)
}

// floatBits is f's float64 image with -0 taken as +0 and every NaN as one
// canonical NaN, since those compare equal.
func floatBits(f float64) uint64 {
	if f != f {
		return 0x7ff8000000000001
	}
	return math.Float64bits(f + 0) // -0 + 0 == +0
}

// hashString folds the string tag with the length, then each full 8-byte
// little-endian word, then the tail: the last 8 bytes re-read overlapping
// the previous word, or the whole string assembled into one word when it is
// shorter than 8 bytes. The length keeps value boundaries apart, so ("ab",
// "c") and ("a", "bc") hash differently.
func hashString(h uint64, s string) uint64 {
	n := len(s)
	h = fold(h^hashTagString, uint64(n))
	if n < 8 {
		var w uint64
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		return fold(h, w)
	}
	for i := 0; i+8 < n; i += 8 {
		h = fold(h, le64(s, i))
	}
	return fold(h, le64(s, n-8))
}

// le64 reads s[i:i+8] as a little-endian word; the compiler merges the byte
// loads into one.
func le64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// HashSeed returns the initial state of a HashInto fold. Column-major hashers
// (the chained columnar pipeline) start here so their hashes equal
// Tuple.HashCols element-wise.
func HashSeed() uint64 { return hashSeed }

// Hash returns the hash of the whole tuple.
func (t Tuple) Hash() uint64 {
	h := hashSeed
	for _, v := range t {
		h = v.HashInto(h)
	}
	return h
}

// HashCols hashes the column subset cols, in order. The caller precomputes
// cols once per operator, so per-row hashing touches only the key columns.
func (t Tuple) HashCols(cols []int) uint64 {
	h := hashSeed
	for _, c := range cols {
		h = t[c].HashInto(h)
	}
	return h
}

// Equal reports column-wise equality of two tuples under Value.Equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// EqualOn reports equality of two tuples restricted to parallel column
// subsets: a[ac[i]] == b[bc[i]] for every i. Used to confirm hash-join
// matches on collision.
func EqualOn(a Tuple, ac []int, b Tuple, bc []int) bool {
	for i := range ac {
		if !a[ac[i]].Equal(b[bc[i]]) {
			return false
		}
	}
	return true
}
