package algebra

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/catalog"
)

// decodeTuples interprets fuzz bytes as two tuples of typed values. The
// decoder is total (any byte slice yields two tuples, possibly empty) and
// deliberately over-produces the hard cases of the Compare/Hash contract:
// NaN, ±0.0, ±Inf, integers above 2^53 whose float64 images collide, and
// values of different kinds that compare equal (Int vs Date vs Float).
func decodeTuples(data []byte) (a, b Tuple) {
	specials := []Value{
		NewFloat(math.NaN()),
		NewFloat(math.Copysign(0, -1)),
		NewFloat(0),
		NewFloat(math.Inf(1)),
		NewFloat(math.Inf(-1)),
		NewInt(1 << 53),
		NewInt(1<<53 + 1),
		NewFloat(1 << 53),
		NewInt(math.MaxInt64),
		NewInt(math.MinInt64),
		NewFloat(9.223372036854776e18), // 2^63, above every int64
		NewDate(0),
		NewString(""),
	}
	cur := &a
	for len(data) > 0 {
		op := data[0] % 6
		data = data[1:]
		take := func(n int) []byte {
			if len(data) < n {
				pad := make([]byte, n)
				copy(pad, data)
				data = nil
				return pad
			}
			out := data[:n]
			data = data[n:]
			return out
		}
		switch op {
		case 0:
			*cur = append(*cur, NewInt(int64(binary.LittleEndian.Uint64(take(8)))))
		case 1:
			*cur = append(*cur, NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(take(8)))))
		case 2:
			*cur = append(*cur, NewDate(int64(binary.LittleEndian.Uint64(take(8)))))
		case 3:
			n := 0
			if len(data) > 0 {
				n = int(data[0]) % 9
				data = data[1:]
			}
			*cur = append(*cur, NewString(string(take(n))))
		case 4:
			i := 0
			if len(data) > 0 {
				i = int(data[0]) % len(specials)
				data = data[1:]
			}
			*cur = append(*cur, specials[i])
		default:
			cur = &b // switch to filling the second tuple
		}
		if len(a) > 8 || len(b) > 8 {
			break
		}
	}
	return a, b
}

// sign normalizes a comparison result.
func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// FuzzTupleHashEqual checks the hash/equality/order contract the storage
// multisets, hash joins, dedup and aggregation all build on: Equal is an
// equivalence relation consistent with Compare, equal values and tuples
// hash equal (from any running FNV state), and the column-subset helpers
// agree with the whole-tuple ones.
func FuzzTupleHashEqual(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 4, 1, 4, 2, 5, 4, 5, 4, 6})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 5, 1, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0x20, 5, 2, 1, 0, 0, 0, 0, 0, 0, 0x20})
	// Word-boundary seeds for the word-at-a-time string fold: one string of
	// 0, 7 and 8 bytes (the decoder's longest) in both tuples, then adjacent
	// strings of 8+1, 8+7, 8+8 and 8+8+1 bytes against other splits of the
	// same bytes. FuzzStringHashWords seeds single strings of 9 to 17 bytes.
	f.Add([]byte{3, 0, 5, 3, 0})
	f.Add([]byte{3, 7, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 5, 3, 7, 'a', 'b', 'c', 'd', 'e', 'f', 'g'})
	f.Add([]byte{3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 5, 3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'})
	f.Add([]byte{3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 3, 1, 'i', 5, 3, 7, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 3, 2, 'h', 'i'})
	f.Add([]byte{3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 3, 7, 'i', 'j', 'k', 'l', 'm', 'n', 'o', 5, 3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 3, 7, 'i', 'j', 'k', 'l', 'm', 'n', 'o'})
	f.Add([]byte{3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 3, 8, 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 5, 3, 8, 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'})
	f.Add([]byte{3, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 3, 8, 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 3, 1, 'q', 5, 3, 1, 'a', 3, 8, 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 3, 8, 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q'})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeTuples(data)
		vals := append(append(Tuple{}, a...), b...)

		// Value-level contract, all pairs.
		for _, v := range vals {
			if v.Compare(v) != 0 || !v.Equal(v) {
				t.Fatalf("value %v not equal to itself", v)
			}
		}
		for _, v := range vals {
			for _, w := range vals {
				cvw, cwv := v.Compare(w), w.Compare(v)
				if sign(cvw) != -sign(cwv) {
					t.Fatalf("Compare not antisymmetric: %v vs %v → %d, %d", v, w, cvw, cwv)
				}
				if (cvw == 0) != v.Equal(w) {
					t.Fatalf("Equal disagrees with Compare==0: %v vs %v", v, w)
				}
				if v.Equal(w) {
					if v.Hash() != w.Hash() {
						t.Fatalf("equal values hash differently: %v vs %v", v, w)
					}
					// Equality must also survive mid-stream hashing.
					var h uint64 = 0x9e3779b97f4a7c15
					if v.HashInto(h) != w.HashInto(h) {
						t.Fatalf("equal values diverge under HashInto: %v vs %v", v, w)
					}
				}
			}
		}
		// Transitivity over all triples (tuples are capped at 8+8 values).
		for _, x := range vals {
			for _, y := range vals {
				if !x.Equal(y) {
					continue
				}
				for _, z := range vals {
					if y.Equal(z) && !x.Equal(z) {
						t.Fatalf("Equal not transitive: %v = %v = %v but %v ≠ %v", x, y, z, x, z)
					}
				}
			}
		}

		// Tuple-level contract.
		if !a.Equal(a.Clone()) || a.Hash() != a.Clone().Hash() {
			t.Fatalf("tuple not equal to its clone")
		}
		if a.Equal(b) {
			if a.Hash() != b.Hash() {
				t.Fatalf("equal tuples hash differently: %v vs %v", a, b)
			}
			if !b.Equal(a) {
				t.Fatalf("tuple Equal not symmetric")
			}
		}
		all := make([]int, len(a))
		for i := range all {
			all[i] = i
		}
		if a.HashCols(all) != a.Hash() {
			t.Fatalf("HashCols over all columns differs from Hash")
		}
		if len(a) > 0 && !EqualOn(a, all, a, all) {
			t.Fatalf("EqualOn not reflexive")
		}
		if len(a) == len(b) && len(a) > 0 {
			if EqualOn(a, all, b, all) != a.Equal(b) {
				t.Fatalf("EqualOn over all columns disagrees with Equal: %v vs %v", a, b)
			}
		}
		// Cross-kind numeric equality: Int, Date and (exactly-representable)
		// Float images of the same number are one Compare class and must
		// hash together.
		for _, v := range vals {
			if v.Kind != catalog.Int {
				continue
			}
			d := NewDate(v.I)
			if !v.Equal(d) || v.Hash() != d.Hash() {
				t.Fatalf("Int/Date images of %d diverge", v.I)
			}
			if f := float64(v.I); f < 1<<62 && f > -(1<<62) && int64(f) == v.I {
				fv := NewFloat(f)
				if !v.Equal(fv) || v.Hash() != fv.Hash() {
					t.Fatalf("Int/Float images of %d diverge", v.I)
				}
			}
		}
	})
}
