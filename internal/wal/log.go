package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Defaults for Options fields left zero.
const (
	DefaultSegmentBytes = int64(4 << 20)
)

// Options configures a Log.
type Options struct {
	// Fsync makes every committed batch durable before AppendBatch returns.
	// Off, writes still go to the OS promptly but survive only process
	// crashes, not machine crashes.
	Fsync bool
	// CommitWindow is ignored: the daemon never sleeps waiting for more
	// appends (see daemon). It is kept only for callers that still set it.
	CommitWindow time.Duration
	// SegmentBytes triggers rotation to a new segment file once the current
	// one exceeds it. Batches never span segments: rotation happens only at
	// batch boundaries.
	SegmentBytes int64
	// KeepAll disables log pruning after spills, so the full batch history
	// stays replayable from batch 1 (crash tests verify recovery against a
	// from-scratch replay).
	KeepAll bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Stats counts log activity since Open.
type Stats struct {
	// Appends is the number of batches durably appended.
	Appends int64
	// Syncs is the number of fsync calls; Appends/Syncs is the group-commit
	// coalescing factor.
	Syncs int64
	// Rotations counts segment rotations.
	Rotations int64
	// Bytes is the total frame bytes written.
	Bytes int64
	// WaitNanos is the cumulative time callers spent blocked on the sync
	// barrier; WaitNanos/Appends is the mean commit latency.
	WaitNanos int64
}

// Batch is one ingest batch: the per-relation delta records of a single
// refresh cycle, made durable atomically (all or nothing after recovery).
type Batch struct {
	Seq    int64
	Epoch  int64
	Deltas []DeltaRec
}

// encode frames every delta record followed by the commit marker.
func (b *Batch) encode() []byte {
	var out []byte
	for i := range b.Deltas {
		b.Deltas[i].Seq = b.Seq
		out = AppendFrame(out, EncodeDelta(&b.Deltas[i]))
	}
	return AppendFrame(out, EncodeCommit(&CommitRec{Seq: b.Seq, Epoch: b.Epoch}))
}

// unit is one queued work item for the group-commit daemon: either a batch's
// frames or a rotation request. ack receives the outcome after the unit is
// durable (or the rotation complete); newSeg receives the post-rotation
// segment sequence.
type unit struct {
	frames []byte
	rotate bool
	newSeg chan int64
	ack    chan error
	start  time.Time
}

// Log is the append side of the write-ahead log. One daemon goroutine owns
// the segment file; AppendBatch may be called from any goroutine and blocks
// until the batch's group is durable.
type Log struct {
	dir string
	opt Options

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []unit
	closed bool
	err    error
	stats  Stats

	// Daemon-owned (no lock needed: only the daemon touches them).
	f        *os.File
	segSeq   int64
	segBytes int64

	done chan struct{}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a copy of the activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err returns the sticky I/O error, if the daemon hit one.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// segName formats a segment file name; names sort in sequence order.
func segName(seq int64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// segSeqOf parses a segment file name, returning -1 for non-segments.
func segSeqOf(name string) int64 {
	var seq int64
	if n, err := fmt.Sscanf(name, "wal-%d.seg", &seq); n != 1 || err != nil {
		return -1
	}
	return seq
}

// openSegment creates segment seq in dir and makes its directory entry
// durable.
func openSegment(dir string, seq int64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// AppendBatch appends one batch and blocks until it is durable under the
// log's sync policy (fsynced with Fsync on, written to the OS otherwise).
// Concurrent callers are coalesced into one fsync by the commit daemon.
func (l *Log) AppendBatch(b *Batch) error {
	u := unit{frames: b.encode(), ack: make(chan error, 1), start: time.Now()}
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	l.queue = append(l.queue, u)
	l.cond.Signal()
	l.mu.Unlock()
	err := <-u.ack
	l.mu.Lock()
	l.stats.WaitNanos += time.Since(u.start).Nanoseconds()
	if err == nil {
		l.stats.Appends++
	}
	l.mu.Unlock()
	return err
}

// Rotate closes the current segment (after making it durable) and starts a
// new one, returning the new segment sequence. Queued like any append, so it
// lands on a batch boundary.
func (l *Log) Rotate() (int64, error) {
	u := unit{rotate: true, newSeg: make(chan int64, 1), ack: make(chan error, 1), start: time.Now()}
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return 0, l.err
	}
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log closed")
	}
	l.queue = append(l.queue, u)
	l.cond.Signal()
	l.mu.Unlock()
	if err := <-u.ack; err != nil {
		return 0, err
	}
	return <-u.newSeg, nil
}

// Close drains the queue, makes everything durable, and stops the daemon.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.err
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
	return l.Err()
}

// daemon is the group-commit loop: it takes every queued unit, writes them in
// order, issues one fsync for the whole group, and releases every caller's
// sync barrier. It never sleeps waiting for more appends: a group is what
// queued during the previous write and fsync plus what runnable appenders
// queue while the daemon yields once, so concurrent appenders share fsyncs
// and a lone sequential appender pays one fsync per append, at once.
func (l *Log) daemon() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			break
		}
		// Yield once so appenders that are runnable but not yet queued join
		// this group. Nothing sleeps: a lone appender, blocked on its ack,
		// adds nobody.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		group := l.queue
		l.queue = nil
		l.mu.Unlock()
		l.process(group)
	}
	if l.f != nil {
		var err error
		if l.opt.Fsync {
			err = l.f.Sync()
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			l.fail(err)
		}
	}
}

// process writes one coalesced group. Rotations embedded in the group sync
// and close the old file in order; one final fsync covers every write since
// the last sync. All acks fire after the group is durable.
func (l *Log) process(group []unit) {
	var err error
	unsynced := false
	for i := range group {
		u := &group[i]
		if err != nil {
			continue
		}
		if u.rotate {
			err = l.rotateFile(unsynced)
			unsynced = false
			if err == nil && u.newSeg != nil {
				u.newSeg <- l.segSeq
			}
			continue
		}
		if _, werr := l.f.Write(u.frames); werr != nil {
			err = werr
			continue
		}
		l.segBytes += int64(len(u.frames))
		l.addBytes(int64(len(u.frames)))
		unsynced = true
		if l.segBytes >= l.opt.SegmentBytes {
			err = l.rotateFile(unsynced)
			unsynced = false
		}
	}
	if err == nil && unsynced && l.opt.Fsync {
		err = l.f.Sync()
		l.mu.Lock()
		l.stats.Syncs++
		l.mu.Unlock()
	}
	if err != nil {
		l.fail(err)
	}
	for i := range group {
		group[i].ack <- err
	}
}

// rotateFile closes the current segment (synced if anything unsynced is in
// it or fsync demands it) and opens the next.
func (l *Log) rotateFile(unsynced bool) error {
	if l.opt.Fsync && unsynced {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.mu.Lock()
		l.stats.Syncs++
		l.mu.Unlock()
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := openSegment(l.dir, l.segSeq+1)
	if err != nil {
		return err
	}
	l.f = f
	l.segSeq++
	l.segBytes = 0
	l.mu.Lock()
	l.stats.Rotations++
	l.mu.Unlock()
	return nil
}

func (l *Log) addBytes(n int64) {
	l.mu.Lock()
	l.stats.Bytes += n
	l.mu.Unlock()
}

// fail records a sticky error: every later append fails fast.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}
