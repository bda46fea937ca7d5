package feedback

import (
	"math"
	"sync"
	"testing"
)

func TestObserveRejectsBadValues(t *testing.T) {
	s := NewStore()
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		s.ObserveFull("k", v, 1)
		s.ObserveDelta("k", "orders", true, v, 1)
	}
	if st := s.Stats(); st.Observations != 0 || st.FullKeys != 0 || st.DeltaKeys != 0 {
		t.Fatalf("dropped observations counted: %+v", st)
	}
}

func TestDeltaKeyedByTableAndSign(t *testing.T) {
	s := NewStore()
	s.ObserveDelta("k", "orders", true, 10, 1)
	s.ObserveDelta("k", "orders", false, 20, 1)
	s.ObserveDelta("k", "lineitem", true, 30, 1)
	if st := s.Stats(); st.DeltaKeys != 3 || st.Observations != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQErrorProperties(t *testing.T) {
	if q := QError(100, 100); q != 1 {
		t.Fatalf("perfect estimate: want 1, got %g", q)
	}
	if a, b := QError(10, 100), QError(100, 10); a != b {
		t.Fatalf("q-error must be symmetric: %g vs %g", a, b)
	}
	// The +1 shift keeps empty differentials finite.
	if q := QError(50, 0); math.IsInf(q, 0) || q != 51 {
		t.Fatalf("empty actual: want 51, got %g", q)
	}
	// Garbage estimates clamp instead of poisoning the ring.
	for _, est := range []float64{math.NaN(), math.Inf(1), -5} {
		if q := QError(est, 10); math.IsNaN(q) || math.IsInf(q, 0) || q < 1 {
			t.Fatalf("QError(%g, 10) = %g", est, q)
		}
	}
}

func TestQWindowStats(t *testing.T) {
	s := NewStore()
	// Eight perfect estimates and two misses: median 1, p90 (nearest-rank,
	// the 9th of 10 sorted values) lands on the smaller miss, max on the
	// larger.
	for i := 0; i < 8; i++ {
		s.RecordQ(100, 100)
	}
	s.RecordQ(300, 100)
	s.RecordQ(900, 100)
	st := s.Stats()
	if st.QCount != 10 || st.QTotal != 10 {
		t.Fatalf("window: %+v", st)
	}
	if st.QMedian != 1 {
		t.Fatalf("median: want 1, got %g", st.QMedian)
	}
	q3, q9 := QError(300, 100), QError(900, 100)
	if st.QP90 != q3 || st.QMax != q9 {
		t.Fatalf("p90/max: want %g/%g, got %g/%g", q3, q9, st.QP90, st.QMax)
	}
	wantMean := (8 + q3 + q9) / 10
	if math.Abs(st.QMean-wantMean) > 1e-9 {
		t.Fatalf("mean: want %g, got %g", wantMean, st.QMean)
	}

	s.ResetQ()
	st = s.Stats()
	if st.QCount != 0 || st.QMedian != 0 {
		t.Fatalf("ResetQ must clear the window: %+v", st)
	}
	if st.QTotal != 10 || st.QMax != q9 {
		t.Fatalf("ResetQ must keep cumulative counters: %+v", st)
	}
}

func TestQWindowBounded(t *testing.T) {
	s := NewStore()
	for i := 0; i < qWindow+100; i++ {
		s.RecordQ(1, 1)
	}
	st := s.Stats()
	if st.QCount != qWindow {
		t.Fatalf("window must cap at %d, got %d", qWindow, st.QCount)
	}
	if st.QTotal != int64(qWindow+100) {
		t.Fatalf("QTotal must keep counting: %d", st.QTotal)
	}
}

func TestLastEpochMonotone(t *testing.T) {
	s := NewStore()
	s.ObserveFull("a", 1, 5)
	s.ObserveFull("b", 1, 3) // out-of-order epoch must not regress
	if st := s.Stats(); st.LastEpoch != 5 {
		t.Fatalf("LastEpoch: want 5, got %d", st.LastEpoch)
	}
}

// TestConcurrentUse hammers every method from parallel goroutines; run under
// -race this is the store's concurrency contract (refresh observes while
// readers serve).
func TestConcurrentUse(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := string(rune('a' + g%4))
			for i := 0; i < 500; i++ {
				s.ObserveFull(key, float64(i), uint64(i))
				s.ObserveDelta(key, "orders", i%2 == 0, float64(i), uint64(i))
				s.RecordQ(float64(i), float64(i+1))
				if i%100 == 0 {
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Observations != 8000 || st.QTotal != 4000 {
		t.Fatalf("lost updates: %+v", st)
	}
}
