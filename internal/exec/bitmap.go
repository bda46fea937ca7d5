package exec

import "math/bits"

// Bitmap is the selection vector of the filter kernel: one bit per input row,
// set when the row survives the predicate conjuncts applied so far. Filters
// fill it with tight typed loops over column vectors (batch.go) and compose
// further conjuncts by clearing set bits, then a single ordered pass lists
// the surviving rows — in input row order, since bit order is row order.
//
// Bits at index >= Len() are never set; every operation keeps that invariant
// (Not masks the tail word), so Count and iteration need no bounds checks.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an empty (all-zero) bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, words: make([]uint64, (n+63)>>6)}
}

// Len returns the row count the bitmap ranges over.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll sets every bit in [0, Len()).
func (b *Bitmap) SetAll() {
	for w := range b.words {
		b.words[w] = ^uint64(0)
	}
	b.maskTail()
}

// ClearAll zeroes the bitmap.
func (b *Bitmap) ClearAll() {
	for w := range b.words {
		b.words[w] = 0
	}
}

// span returns how many rows of [i, hi) share row i's word, and their bits in
// that word.
func span(i, hi int) (n int, rowBits uint64) {
	n = min(64-i&63, hi-i)
	return n, ^uint64(0) >> uint(64-n) << uint(i&63)
}

// SetRange sets every bit in [lo, hi), a word at a time.
func (b *Bitmap) SetRange(lo, hi int) {
	for i := lo; i < hi; {
		n, rowBits := span(i, hi)
		b.words[i>>6] |= rowBits
		i += n
	}
}

// ClearRange clears every bit in [lo, hi), a word at a time.
func (b *Bitmap) ClearRange(lo, hi int) {
	for i := lo; i < hi; {
		n, rowBits := span(i, hi)
		b.words[i>>6] &^= rowBits
		i += n
	}
}

// sparseWord is the survivor count up to which compose mode tests a word's
// surviving rows one by one rather than all of its rows in one dense pass.
const sparseWord = 4

// MergeMasks folds a dense predicate loop over rows [lo, hi) into the bitmap a
// word at a time: mask(i, n) holds the verdicts on rows i..i+n in its low n
// bits (the rest are ignored). Fill mode (first) sets the bits of passing
// rows; compose mode clears the bits of failing ones, touching only rows that
// can still survive where few are left.
func (b *Bitmap) MergeMasks(first bool, lo, hi int, mask func(i, n int) uint64) {
	for i := lo; i < hi; {
		n, rowBits := span(i, hi)
		w := &b.words[i>>6]
		switch live := *w & rowBits; {
		case first:
			*w |= mask(i, n) << uint(i&63) & rowBits
		case bits.OnesCount64(live) > sparseWord:
			*w &^= rowBits &^ (mask(i, n) << uint(i&63))
		default:
			for ; live != 0; live &= live - 1 {
				if tz := bits.TrailingZeros64(live); mask(i&^63+tz, 1)&1 == 0 {
					*w &^= 1 << uint(tz)
				}
			}
		}
		i += n
	}
}

// maskTail zeroes the bits of the last word beyond Len().
func (b *Bitmap) maskTail() {
	if r := uint(b.n & 63); r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// And intersects with o (same length required).
func (b *Bitmap) And(o *Bitmap) {
	for w := range b.words {
		b.words[w] &= o.words[w]
	}
}

// AndNot removes o's set bits (same length required).
func (b *Bitmap) AndNot(o *Bitmap) {
	for w := range b.words {
		b.words[w] &^= o.words[w]
	}
}

// Or unions with o (same length required).
func (b *Bitmap) Or(o *Bitmap) {
	for w := range b.words {
		b.words[w] |= o.words[w]
	}
}

// Not complements the bitmap within [0, Len()).
func (b *Bitmap) Not() {
	for w := range b.words {
		b.words[w] = ^b.words[w]
	}
	b.maskTail()
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountRange returns the number of set bits in [lo, hi). lo must be a
// multiple of 64 or share its word with no set bit below lo (the batch
// engine always calls it with word-aligned lo).
func (b *Bitmap) CountRange(lo, hi int) int {
	n := 0
	for w := lo >> 6; w < (hi+63)>>6 && w < len(b.words); w++ {
		word := b.words[w]
		if base := w << 6; base+64 > hi {
			word &= (1 << uint(hi-base)) - 1
		}
		if base := w << 6; base < lo {
			word &^= (1 << uint(lo-base)) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// ForEach calls fn for every set bit, in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) { b.ForEachRange(0, b.n, fn) }

// ForEachRange calls fn for every set bit in [lo, hi), in ascending order.
func (b *Bitmap) ForEachRange(lo, hi int, fn func(i int)) {
	if hi > b.n {
		hi = b.n
	}
	for w := lo >> 6; w < (hi+63)>>6 && w < len(b.words); w++ {
		word := b.words[w]
		base := w << 6
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			i := base + tz
			word &= word - 1
			if i < lo {
				continue
			}
			if i >= hi {
				return
			}
			fn(i)
		}
	}
}

// FilterRange clears every set bit i in [lo, hi) for which pred(i) is false
// — selection-vector composition for non-leading predicate conjuncts.
func (b *Bitmap) FilterRange(lo, hi int, pred func(i int) bool) {
	if hi > b.n {
		hi = b.n
	}
	for w := lo >> 6; w < (hi+63)>>6 && w < len(b.words); w++ {
		word := b.words[w]
		base := w << 6
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			i := base + tz
			word &= word - 1
			if i < lo || i >= hi {
				continue
			}
			if !pred(i) {
				b.words[w] &^= 1 << uint(tz)
			}
		}
	}
}

// wordSpan returns the word-index range covering rows [lo, hi). The batch
// engine calls the *Words helpers below only with lo word-aligned and hi
// either word-aligned or equal to Len(), so a word never spans two callers.
func (b *Bitmap) wordSpan(lo, hi int) (wlo, whi int) {
	wlo, whi = lo>>6, (hi+63)>>6
	if whi > len(b.words) {
		whi = len(b.words)
	}
	return
}

// ZeroWords zeroes the words covering rows [lo, hi) (word-aligned contract —
// see wordSpan).
func (b *Bitmap) ZeroWords(lo, hi int) {
	wlo, whi := b.wordSpan(lo, hi)
	for w := wlo; w < whi; w++ {
		b.words[w] = 0
	}
}

// AndWords intersects with o over the words covering rows [lo, hi)
// (word-aligned contract — see wordSpan).
func (b *Bitmap) AndWords(o *Bitmap, lo, hi int) {
	wlo, whi := b.wordSpan(lo, hi)
	for w := wlo; w < whi; w++ {
		b.words[w] &= o.words[w]
	}
}

// CopyWords copies o's words covering rows [lo, hi) (word-aligned contract —
// see wordSpan).
func (b *Bitmap) CopyWords(o *Bitmap, lo, hi int) {
	wlo, whi := b.wordSpan(lo, hi)
	copy(b.words[wlo:whi], o.words[wlo:whi])
}

// Indices materializes the selection vector as ascending row indexes.
func (b *Bitmap) Indices() []int32 {
	out := make([]int32, b.Count())
	o := 0
	for w, word := range b.words {
		for base := int32(w << 6); word != 0; word &= word - 1 {
			out[o] = base + int32(bits.TrailingZeros64(word))
			o++
		}
	}
	return out
}

// FromBools builds a bitmap from a bool slice (the naive model the property
// tests compare against).
func FromBools(m []bool) *Bitmap {
	b := NewBitmap(len(m))
	for i, v := range m {
		if v {
			b.Set(i)
		}
	}
	return b
}

// ToBools materializes the bitmap as a bool slice.
func (b *Bitmap) ToBools() []bool {
	out := make([]bool, b.n)
	b.ForEach(func(i int) { out[i] = true })
	return out
}
