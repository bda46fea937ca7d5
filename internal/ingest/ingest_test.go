package ingest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
)

func op(i int) Op {
	return Op{Rel: "r", Tuple: algebra.Tuple{algebra.NewInt(int64(i))}}
}

// The queue never holds more than Capacity ops: with no consumer, a Block
// producer must stop at the bound and a Shed producer must drop past it.
func TestQueueBoundsDepth(t *testing.T) {
	q := NewQueue(Config{Capacity: 8, Policy: Shed})
	for i := 0; i < 50; i++ {
		q.Enqueue(op(i))
	}
	if d := q.Depth(); d != 8 {
		t.Fatalf("depth %d, want 8", d)
	}
	st := q.Stats()
	if st.Enqueued != 8 || st.Shed != 42 {
		t.Fatalf("enqueued %d shed %d, want 8/42", st.Enqueued, st.Shed)
	}
	if st.Capacity != 8 {
		t.Fatalf("capacity %d, want 8", st.Capacity)
	}
}

// A Block producer parks when the queue is full and resumes as soon as the
// consumer drains a batch; nothing is ever dropped.
func TestBlockPolicyBackpressure(t *testing.T) {
	q := NewQueue(Config{Capacity: 4, MaxBatchRows: 4, MaxBatchWait: time.Millisecond, Policy: Block})
	const total = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if !q.Enqueue(op(i)) {
				t.Errorf("enqueue %d rejected under Block policy", i)
				return
			}
		}
	}()

	got := 0
	for got < total {
		if d := q.Depth(); d > 4 {
			t.Fatalf("depth %d exceeds capacity 4", d)
		}
		ops, _, ok := q.NextBatch()
		if !ok {
			t.Fatal("queue reported closed")
		}
		got += len(ops)
	}
	<-done
	if st := q.Stats(); st.Shed != 0 || st.Enqueued != total {
		t.Fatalf("stats %+v, want %d enqueued and 0 shed", st, total)
	}
}

// Micro-batch formation: a full queue yields MaxBatchRows-sized batches; a
// trickle is cut by MaxBatchWait instead of waiting for the size cap.
func TestNextBatchSizeAndTimeCuts(t *testing.T) {
	q := NewQueue(Config{Capacity: 64, MaxBatchRows: 8, MaxBatchWait: time.Hour})
	for i := 0; i < 20; i++ {
		q.Enqueue(op(i))
	}
	ops, oldest, ok := q.NextBatch()
	if !ok || len(ops) != 8 {
		t.Fatalf("got %d ops (ok=%v), want size-capped batch of 8", len(ops), ok)
	}
	if oldest.IsZero() {
		t.Fatal("oldest timestamp not set")
	}

	qt := NewQueue(Config{Capacity: 64, MaxBatchRows: 1024, MaxBatchWait: 5 * time.Millisecond})
	qt.Enqueue(op(0))
	start := time.Now()
	ops, _, ok = qt.NextBatch()
	if !ok || len(ops) != 1 {
		t.Fatalf("got %d ops (ok=%v), want time-cut batch of 1", len(ops), ok)
	}
	if time.Since(start) > time.Second {
		t.Fatal("time cut did not fire")
	}
}

// Close drains: ops enqueued before Close are still delivered, then NextBatch
// reports !ok, and Enqueue rejects.
func TestCloseDrainsThenStops(t *testing.T) {
	q := NewQueue(Config{Capacity: 16, MaxBatchRows: 100, MaxBatchWait: time.Millisecond})
	for i := 0; i < 5; i++ {
		q.Enqueue(op(i))
	}
	q.Close()
	if q.Enqueue(op(99)) {
		t.Fatal("enqueue accepted after Close")
	}
	ops, _, ok := q.NextBatch()
	if !ok || len(ops) != 5 {
		t.Fatalf("drain got %d ops (ok=%v), want 5", len(ops), ok)
	}
	if _, _, ok := q.NextBatch(); ok {
		t.Fatal("NextBatch ok after drain of closed queue")
	}
	// Blocked consumers wake on Close too.
	q2 := NewQueue(Config{Capacity: 4})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, ok := q2.NextBatch(); ok {
			t.Error("NextBatch ok on closed empty queue")
		}
	}()
	time.Sleep(2 * time.Millisecond)
	q2.Close()
	wg.Wait()
}

// Acceptance is a guarantee even across a racing Close: an op Enqueue
// returned true for must be drained before NextBatch reports exhaustion —
// a send that wins the select race against <-q.done must not be lost once
// the consumer has observed the queue empty. Run many rounds with Close
// landing mid-stream to exercise the window (and -race to check the
// barrier's ordering).
func TestCloseRaceNeverDropsAcceptedOps(t *testing.T) {
	for round := 0; round < 200; round++ {
		q := NewQueue(Config{Capacity: 4, MaxBatchRows: 8, MaxBatchWait: 50 * time.Microsecond})
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if !q.Enqueue(op(p*1_000_000 + i)) {
						return
					}
					accepted.Add(1)
				}
			}(p)
		}
		drained := 0
		consumed := make(chan struct{})
		go func() {
			defer close(consumed)
			for {
				ops, _, ok := q.NextBatch()
				if !ok {
					return
				}
				drained += len(ops)
			}
		}()
		time.Sleep(time.Duration(round%4) * 50 * time.Microsecond)
		q.Close()
		wg.Wait()
		<-consumed
		if int64(drained) != accepted.Load() {
			t.Fatalf("round %d: %d ops accepted, %d drained — accepted op lost at close",
				round, accepted.Load(), drained)
		}
	}
}

// nextBatchWithin runs NextBatch on its own goroutine and fails the test if
// it has not returned within d, so a batch that lingers fails instead of
// hanging.
func nextBatchWithin(t *testing.T, q *Queue, d time.Duration) []Op {
	t.Helper()
	type res struct {
		ops []Op
		ok  bool
	}
	got := make(chan res, 1)
	go func() {
		ops, _, ok := q.NextBatch()
		got <- res{ops, ok}
	}()
	select {
	case r := <-got:
		if !r.ok {
			t.Fatal("NextBatch reported the queue drained")
		}
		return r.ops
	case <-time.After(d):
		t.Fatalf("NextBatch still lingering after %v", d)
		return nil
	}
}

// A Flush cuts the pending batch at the last accepted op: with an hour of
// linger, the three flushed ops come back at once, whether the Flush lands
// before NextBatch starts or, from another goroutine, while NextBatch is
// already lingering for more.
func TestFlushCutsLinger(t *testing.T) {
	fill := func() *Queue {
		q := NewQueue(Config{Capacity: 64, MaxBatchRows: 1024, MaxBatchWait: time.Hour})
		for i := 0; i < 3; i++ {
			q.Enqueue(op(i))
		}
		return q
	}
	t.Run("before", func(t *testing.T) {
		q := fill()
		q.Flush()
		if ops := nextBatchWithin(t, q, time.Second); len(ops) != 3 {
			t.Fatalf("got %d ops, want the 3 flushed", len(ops))
		}
	})
	t.Run("while waiting", func(t *testing.T) {
		q := fill()
		go func() {
			// Let NextBatch take the ops and start lingering first.
			for q.Depth() > 0 {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(5 * time.Millisecond)
			q.Flush()
		}()
		if ops := nextBatchWithin(t, q, time.Second); len(ops) != 3 {
			t.Fatalf("got %d ops, want the 3 flushed", len(ops))
		}
	})
}

// A flush whose ops an earlier batch already took does not cut later
// batches: they still linger the full MaxBatchWait.
func TestStaleFlushKeepsLinger(t *testing.T) {
	const wait = 30 * time.Millisecond
	q := NewQueue(Config{Capacity: 64, MaxBatchRows: 1024, MaxBatchWait: wait})
	q.Enqueue(op(0))
	q.Enqueue(op(1))
	q.Flush()
	if ops := nextBatchWithin(t, q, time.Second); len(ops) != 2 {
		t.Fatalf("got %d ops, want the 2 flushed", len(ops))
	}
	q.Flush() // nothing new accepted: a no-op, but it leaves a nudge behind
	q.Enqueue(op(2))
	start := time.Now()
	if ops := nextBatchWithin(t, q, time.Second); len(ops) != 1 {
		t.Fatalf("got %d ops, want 1", len(ops))
	}
	if el := time.Since(start); el < wait {
		t.Fatalf("batch after a stale flush cut after %v, want a linger of at least %v", el, wait)
	}
}
