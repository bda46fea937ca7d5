// Package ingest provides the bounded streaming update queue that turns
// refresh into a continuous loop: producers enqueue single-tuple operations,
// the refresh writer drains them as micro-batches formed by size/time, and
// when the writer falls behind the bounded buffer pushes back — producers
// block or shed per policy instead of growing memory without limit.
package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
)

// Op is one streamed update: insert (Del=false) or delete (Del=true) of one
// tuple in a base relation.
type Op struct {
	Rel   string
	Del   bool
	Tuple algebra.Tuple
}

// Policy says what Enqueue does when the queue is full.
type Policy int

const (
	// Block makes Enqueue wait for space: backpressure propagates to the
	// producer, bounding end-to-end memory.
	Block Policy = iota
	// Shed makes Enqueue drop the op and return false, for producers that
	// prefer losing updates to stalling (the shed count is exposed).
	Shed
)

// Config sizes the queue and the micro-batches drained from it.
type Config struct {
	// Capacity bounds the queued op count (default 8192). Enqueue never
	// grows past it: producers block or shed instead.
	Capacity int
	// MaxBatchRows caps ops per drained micro-batch (default 2048).
	MaxBatchRows int
	// MaxBatchWait caps how long NextBatch lingers for more ops after the
	// first (default 2ms). Smaller = fresher epochs, more refresh cycles.
	// A Flush overrides it: the batch holding the last op accepted before
	// the Flush is cut as soon as that op is in it.
	MaxBatchWait time.Duration
	// Policy is the full-queue behavior (default Block).
	Policy Policy
}

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = 8192
	}
	if c.MaxBatchRows == 0 {
		c.MaxBatchRows = 2048
	}
	if c.MaxBatchWait == 0 {
		c.MaxBatchWait = 2 * time.Millisecond
	}
	return c
}

// Stats counts queue activity.
type Stats struct {
	// Enqueued is the number of accepted ops.
	Enqueued int64
	// Shed is the number of ops dropped by the Shed policy.
	Shed int64
	// Depth is the current queued op count.
	Depth int
	// Capacity echoes the configured bound.
	Capacity int
}

// item timestamps an op at admission, for staleness accounting downstream.
type item struct {
	op Op
	at time.Time
}

// Queue is the bounded op buffer between producers and the refresh writer.
// Any number of goroutines may Enqueue; one consumer calls NextBatch.
type Queue struct {
	cfg  Config
	ch   chan item
	done chan struct{}
	// mu orders producer sends against the consumer's exhaustion check:
	// Enqueue holds it shared across its closed-check and send, and
	// NextBatch takes it exclusively (an empty critical section — a pure
	// barrier) after observing done closed, before the final drain. Close
	// never takes it, so closing always unblocks producers promptly.
	mu       sync.RWMutex
	enqueued atomic.Int64
	shed     atomic.Int64
	closed   atomic.Bool
	// flushTo is the accepted count at the latest Flush; nudge (capacity 1)
	// wakes a NextBatch that is lingering when it moves. taken counts the
	// ops NextBatch has handed out and belongs to the consumer.
	flushTo atomic.Int64
	nudge   chan struct{}
	taken   int64
}

// NewQueue builds a queue.
func NewQueue(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	return &Queue{
		cfg:   cfg,
		ch:    make(chan item, cfg.Capacity),
		done:  make(chan struct{}),
		nudge: make(chan struct{}, 1),
	}
}

// Config returns the effective (defaulted) configuration.
func (q *Queue) Config() Config { return q.cfg }

// Enqueue admits one op, reporting whether it was accepted. Under Block it
// waits for space (returning false only once the queue is closed); under
// Shed it drops immediately when full. Acceptance is a guarantee: an op
// Enqueue returns true for will be drained by NextBatch, even when the
// accept races with Close — the consumer's exhaustion barrier waits out
// every in-flight send before declaring the queue drained.
func (q *Queue) Enqueue(op Op) bool {
	// The read lock spans the closed check and the send. A send can still
	// win the select race against <-q.done after Close (select picks
	// uniformly among ready cases), but it does so while holding the lock,
	// so NextBatch's exhaustion barrier observes it; blocking in the select
	// while holding the lock is safe because Close closes done without
	// taking the lock.
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed.Load() {
		return false
	}
	it := item{op: op, at: time.Now()}
	if q.cfg.Policy == Shed {
		select {
		case q.ch <- it:
			q.enqueued.Add(1)
			return true
		case <-q.done:
			return false
		default:
			q.shed.Add(1)
			return false
		}
	}
	select {
	case q.ch <- it:
		q.enqueued.Add(1)
		return true
	case <-q.done:
		return false
	}
}

// Close stops admission and unblocks producers. NextBatch keeps draining
// what is already queued (including sends that raced with Close and won),
// then reports exhaustion.
func (q *Queue) Close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.done)
	}
}

// Flush asks for every op accepted so far now: the batch that holds the last
// of them is cut as soon as it does, instead of lingering out MaxBatchWait
// for ops that a producer waiting on them will not send. Later batches
// linger as before. Call it once the producers whose ops it should cover
// have returned from Enqueue.
func (q *Queue) Flush() {
	n := q.enqueued.Load()
	for {
		f := q.flushTo.Load()
		if n <= f || q.flushTo.CompareAndSwap(f, n) {
			break
		}
	}
	select {
	case q.nudge <- struct{}{}:
	default:
	}
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool { return q.closed.Load() }

// Depth returns the current queued op count.
func (q *Queue) Depth() int { return len(q.ch) }

// Stats returns a copy of the counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Enqueued: q.enqueued.Load(),
		Shed:     q.shed.Load(),
		Depth:    len(q.ch),
		Capacity: q.cfg.Capacity,
	}
}

// NextBatch blocks for the first available op, then collects more until
// MaxBatchRows ops are gathered, MaxBatchWait elapses, or the batch holds the
// last op accepted before a pending Flush, whichever is first. oldest is the
// admission time of the batch's oldest op (the staleness anchor). ok is false
// only when the queue is closed and fully drained.
func (q *Queue) NextBatch() (ops []Op, oldest time.Time, ok bool) {
	var first item
	select {
	case first = <-q.ch:
	case <-q.done:
		// Closed. Barrier first: every in-flight Enqueue resolves promptly
		// now that done is closed, and taking the write lock waits them all
		// out — so the drain below sees every send that will ever succeed,
		// and empty really means exhausted.
		q.mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		q.mu.Unlock()
		select {
		case first = <-q.ch:
		default:
			return nil, time.Time{}, false
		}
	}
	start := q.taken
	defer func() { q.taken += int64(len(ops)) }()
	// flushed reports whether this batch holds the op a Flush asked for; a
	// flush whose ops earlier batches took leaves the linger alone.
	flushed := func() bool {
		f := q.flushTo.Load()
		return start < f && f <= start+int64(len(ops))
	}
	ops = append(ops, first.op)
	oldest = first.at
	if flushed() {
		return ops, oldest, true
	}

	timer := time.NewTimer(q.cfg.MaxBatchWait)
	defer timer.Stop()
	for len(ops) < q.cfg.MaxBatchRows {
		select {
		case it := <-q.ch:
			ops = append(ops, it.op)
			if flushed() {
				return ops, oldest, true
			}
		case <-q.nudge:
			if flushed() {
				return ops, oldest, true
			}
		case <-timer.C:
			return ops, oldest, true
		case <-q.done:
			for len(ops) < q.cfg.MaxBatchRows {
				select {
				case it := <-q.ch:
					ops = append(ops, it.op)
				default:
					return ops, oldest, true
				}
			}
			return ops, oldest, true
		}
	}
	return ops, oldest, true
}
