package exec

// Property tests for the selection-bitmap algebra against a naive []bool
// model: random operation sequences applied to both representations must
// agree bit-for-bit after every step, and the packed invariant (no bits set
// at positions >= Len) must hold so word-level Count/Not/And never see
// garbage in the tail.

import (
	"math/rand"
	"testing"
)

// boolModel is the reference implementation: every Bitmap operation restated
// over a plain bool slice.
type boolModel []bool

func (m boolModel) set(i int)   { m[i] = true }
func (m boolModel) clear(i int) { m[i] = false }
func (m boolModel) fill(v bool) {
	for i := range m {
		m[i] = v
	}
}
func (m boolModel) and(o boolModel) {
	for i := range m {
		m[i] = m[i] && o[i]
	}
}
func (m boolModel) andNot(o boolModel) {
	for i := range m {
		m[i] = m[i] && !o[i]
	}
}
func (m boolModel) or(o boolModel) {
	for i := range m {
		m[i] = m[i] || o[i]
	}
}
func (m boolModel) not() {
	for i := range m {
		m[i] = !m[i]
	}
}
func (m boolModel) filterRange(lo, hi int, pred func(i int) bool) {
	for i := lo; i < hi; i++ {
		if m[i] && !pred(i) {
			m[i] = false
		}
	}
}
func (m boolModel) count() int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// checkAgainstModel asserts the bitmap matches the model exactly and that no
// tail bits beyond Len are set.
func checkAgainstModel(t *testing.T, step int, b *Bitmap, m boolModel) {
	t.Helper()
	if b.Len() != len(m) {
		t.Fatalf("step %d: Len %d vs model %d", step, b.Len(), len(m))
	}
	for i := range m {
		if b.Get(i) != m[i] {
			t.Fatalf("step %d: bit %d: bitmap %v, model %v", step, i, b.Get(i), m[i])
		}
	}
	if got, want := b.Count(), m.count(); got != want {
		t.Fatalf("step %d: Count %d, model %d", step, got, want)
	}
	// Packed invariant: bits at positions >= n must be zero, or word-level
	// Count/And/Not would corrupt results.
	if b.Len()%64 != 0 && len(b.words) > 0 {
		tail := b.words[len(b.words)-1] >> uint(b.Len()%64)
		if tail != 0 {
			t.Fatalf("step %d: tail bits set beyond Len %d: %#x", step, b.Len(), tail)
		}
	}
}

// randRange draws lo <= hi <= n, including empty and full ranges.
func randRange(rng *rand.Rand, n int) (int, int) {
	lo, hi := rng.Intn(n+1), rng.Intn(n+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

func TestBitmapMatchesBoolModel(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		// Lengths straddling word boundaries: 1..200 covers 0, 63, 64, 65,
		// 127, 128 neighborhoods across trials.
		n := 1 + rng.Intn(200)
		if trial < 8 { // force the exact boundary lengths early
			n = []int{1, 63, 64, 65, 127, 128, 129, 192}[trial]
		}
		b := NewBitmap(n)
		m := make(boolModel, n)
		// A second operand for the binary operations, kept in sync the same way.
		ob := NewBitmap(n)
		om := make(boolModel, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				ob.Set(i)
				om.set(i)
			}
		}

		for step := 0; step < 120; step++ {
			switch rng.Intn(8) {
			case 0:
				i := rng.Intn(n)
				b.Set(i)
				m.set(i)
			case 1:
				i := rng.Intn(n)
				b.Clear(i)
				m.clear(i)
			case 2:
				b.And(ob)
				m.and(om)
			case 3:
				b.AndNot(ob)
				m.andNot(om)
			case 4:
				b.Or(ob)
				m.or(om)
			case 5:
				b.Not()
				m.not()
			case 6:
				// Selection-vector composition: keep only survivors of a
				// random predicate over a random range.
				lo, hi := randRange(rng, n)
				k := 1 + rng.Intn(4)
				pred := func(i int) bool { return i%k != 0 }
				b.FilterRange(lo, hi, pred)
				m.filterRange(lo, hi, pred)
			case 7:
				if rng.Intn(2) == 0 {
					b.SetAll()
					m.fill(true)
				} else {
					b.ClearAll()
					m.fill(false)
				}
			}
			checkAgainstModel(t, step, b, m)
		}

		// Read-side agreement on the final state.
		idx := b.Indices()
		if len(idx) != m.count() {
			t.Fatalf("trial %d: Indices len %d, model count %d", trial, len(idx), m.count())
		}
		for k := 1; k < len(idx); k++ {
			if idx[k] <= idx[k-1] {
				t.Fatalf("trial %d: Indices not strictly increasing at %d", trial, k)
			}
		}
		for _, i := range idx {
			if !m[i] {
				t.Fatalf("trial %d: Indices reported unset bit %d", trial, i)
			}
		}
	}
}
