package algebra

import (
	"strings"
	"testing"
)

// TestStringHashWordBoundaries: a string folds its length, its full 8-byte
// words and an overlapping read of its last 8 bytes, so the same bytes can
// fill the same words under two splits of a tuple. The length must keep the
// splits apart, and every byte of every length up to three words must reach
// the hash, the re-read tail included.
func TestStringHashWordBoundaries(t *testing.T) {
	pairs := []struct{ a, b Tuple }{
		{Tuple{NewString("abcdefgh"), NewString("i")}, Tuple{NewString("abcdefghi"), NewString("")}},
		{Tuple{NewString("abcdefg"), NewString("h")}, Tuple{NewString("abcdefgh"), NewString("")}},
		{Tuple{NewString("abcdefghijklmnop")}, Tuple{NewString("abcdefghiXklmnop")}}, // byte 9 differs
	}
	for _, p := range pairs {
		if p.a.Hash() == p.b.Hash() {
			t.Errorf("%v and %v must hash apart", p.a, p.b)
		}
	}
	const text = "abcdefghijklmnopqrstuvwx"
	for n := 0; n <= len(text); n++ {
		s := text[:n]
		h := NewString(s).Hash()
		for i := 0; i < n; i++ {
			flipped := s[:i] + "#" + s[i+1:]
			if NewString(flipped).Hash() == h {
				t.Errorf("length %d: changing byte %d leaves the hash unchanged", n, i)
			}
		}
	}
}

// FuzzStringHashWords holds the string fold to its contract on strings of
// any length: the hash reads only the string's bytes, two different strings
// hash apart, and so do two different splits of the same bytes into two
// adjacent values. A random 64-bit collision is out of a fuzzer's reach, so a
// failure here is a byte the fold skipped or a boundary it let smear.
func FuzzStringHashWords(f *testing.F) {
	f.Add("", "")
	f.Add("abcdefg", "h")
	f.Add("abcdefgh", "i")
	f.Add("abcdefghi", "")
	f.Add("abcdefghijklmno", "p")
	f.Add("abcdefghijklmnop", "q")
	f.Add("abcdefghijklmnopq", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		const mid uint64 = 0x9e3779b97f4a7c15
		va := NewString(a)
		if vc := NewString(strings.Clone(a)); va.Hash() != vc.Hash() || va.HashInto(mid) != vc.HashInto(mid) {
			t.Fatalf("%q hashes differently from its copy", a)
		}
		if a != b && va.Hash() == NewString(b).Hash() {
			t.Fatalf("%q and %q hash together", a, b)
		}
		ab := a + b
		h := Tuple{va, NewString(b)}.Hash()
		for k := 0; k <= len(ab); k++ {
			if k != len(a) && (Tuple{NewString(ab[:k]), NewString(ab[k:])}).Hash() == h {
				t.Fatalf("(%q, %q) and (%q, %q) hash together", a, b, ab[:k], ab[k:])
			}
		}
	})
}

// lineitemRow is a row as wide as TPC-D's lineitem: 12 numeric values (keys,
// quantities, prices, dates) and 4 strings (flag, instruction, mode,
// comment).
func lineitemRow() Tuple {
	return Tuple{
		NewInt(600001), NewInt(17321), NewInt(822), NewInt(3),
		NewFloat(17), NewFloat(23468.41), NewFloat(0.04), NewFloat(0.02),
		NewDate(9624), NewDate(9598), NewDate(9651), NewInt(1),
		NewString("N"), NewString("DELIVER IN PERSON"), NewString("TRUCK"),
		NewString("carefully final deposits detect slyly agai"),
	}
}

// hashSink keeps the benchmarked and allocation-counted hashes live.
var hashSink uint64

// TestTupleHashAllocatesNothing: hashing a row is on every refresh's hot
// path and must not touch the heap.
func TestTupleHashAllocatesNothing(t *testing.T) {
	row := lineitemRow()
	if n := testing.AllocsPerRun(100, func() { hashSink = row.Hash() }); n != 0 {
		t.Errorf("Tuple.Hash allocates %.0f times per row", n)
	}
}

// BenchmarkTupleHash times Tuple.Hash on one lineitem-shaped row.
func BenchmarkTupleHash(b *testing.B) {
	row := lineitemRow()
	b.ReportAllocs()
	for b.Loop() {
		hashSink = row.Hash()
	}
}
