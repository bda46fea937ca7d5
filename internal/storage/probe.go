package storage

import "math/bits"

// ProbeTable is the small side of a keyed pass over a stored relation — a
// hash join's build input — as one flat open-addressed multimap from a 64-bit hash to the build ordinals carrying
// it, fronted by a bit filter over the same hashes. The stored side is read
// through its cached hash column: a row whose hash misses the filter costs
// one test against a few L1-resident words and touches nothing else, so a
// pass's work follows the number of rows that can match rather than the
// relation's size. Ordinals sharing a hash chain in ascending (insertion)
// order, and the caller confirms every candidate by value, so neither hash
// collisions nor filter false positives ever surface. A built table is
// read-only and may be probed from any number of goroutines; Build reuses the
// table's arrays.
type ProbeTable struct {
	hashes []uint64 // the build column (borrowed until the next Build)
	head   []int32  // slot → 1 + first ordinal carrying the slot's hash; 0 = empty
	next   []int32  // ordinal → 1 + next ordinal with the same hash; 0 = end
	shift  uint     // 64 − log2(len(head))
	filter []uint64 // one bit per build hash; nil when disengaged
	words  []uint64 // filter's reusable backing
	fshift uint     // 64 − log2(filter bits)
}

const (
	// hashMix spreads a hash over table slots and filter bits: both read the
	// top bits of h*hashMix (Fibonacci hashing).
	hashMix = 0x9E3779B97F4A7C15
	// filterMinRatio is how many times larger than the build side the probe
	// side must be for the filter to engage. Below it most probes hit, and a
	// test that rarely rejects only taxes them.
	filterMinRatio = 4
	// filterBitsPerKey sizes the filter: about one probe in sixteen of an
	// absent hash passes it.
	filterBitsPerKey = 16
)

// Build indexes a build-side hash column for a pass over probeLen stored
// rows.
func (t *ProbeTable) Build(hashes []uint64, probeLen int) {
	n := len(hashes)
	lg := uint(3)
	for 1<<lg < 2*n {
		lg++
	}
	t.hashes, t.shift = hashes, 64-lg
	t.head = zeroed(t.head, 1<<lg)
	t.next = zeroed(t.next, n)
	mask := uint64(len(t.head) - 1)
	// Back to front, so each hash's chain lists its ordinals ascending.
	for i := n - 1; i >= 0; i-- {
		h := hashes[i]
		s := (h * hashMix) >> t.shift
		for t.head[s] != 0 && hashes[t.head[s]-1] != h {
			s = (s + 1) & mask
		}
		t.next[i] = t.head[s]
		t.head[s] = int32(i + 1)
	}
	t.filter = nil
	if n == 0 || n*filterMinRatio > probeLen {
		return
	}
	flg := uint(bits.Len(uint(n*filterBitsPerKey - 1)))
	if flg < 6 {
		flg = 6
	}
	t.words = zeroed(t.words, 1<<(flg-6))
	t.filter, t.fshift = t.words, 64-flg
	for _, h := range hashes {
		b := (h * hashMix) >> t.fshift
		t.filter[b>>6] |= 1 << (b & 63)
	}
}

// MayContain reports whether h can be a build hash; false is definite.
func (t *ProbeTable) MayContain(h uint64) bool {
	if t.filter == nil {
		return true
	}
	b := (h * hashMix) >> t.fshift
	return t.filter[b>>6]>>(b&63)&1 != 0
}

// First returns the lowest build ordinal whose hash is h, or -1.
func (t *ProbeTable) First(h uint64) int32 {
	mask := uint64(len(t.head) - 1)
	for s := (h * hashMix) >> t.shift; ; s = (s + 1) & mask {
		e := t.head[s]
		if e == 0 {
			return -1
		}
		if t.hashes[e-1] == h {
			return e - 1
		}
	}
}

// Next returns the next build ordinal with the same hash as ordinal i, or -1.
func (t *ProbeTable) Next(i int32) int32 { return t.next[i] - 1 }

// zeroed returns buf resized to n zero elements, reallocating only to grow.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
