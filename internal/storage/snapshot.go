package storage

import (
	"sync"
	"sync/atomic"
)

// Epoch-based snapshot isolation. A Snapshot is an immutable image of the
// whole stored state — every base relation plus every materialized result —
// published atomically by the refresh writer once per committed state: one
// whole refresh batch. That epoch is the system's
// one consistency unit; local readers, durable recovery (a batch's commit
// record carries the epoch its refresh publishes) and the sharded serving
// gate all count in it. Any number of concurrent readers resolve the current
// snapshot with one atomic load and then read it without further
// synchronization; the writer proceeds without ever blocking on them.
// Copy-on-write is at relation granularity and decided by ownership: a batch
// that mutates k relations creates k new relation versions, one per relation
// at its first merge (later merges of the batch write that unpublished
// version in place), and shares every other relation with the previous
// snapshot. An insert-merge's version shares its parent's arrays and writes
// only the delta behind them; a delete-merge's version shares them too and
// copies only the dead-row bitmap, unless its marks pass the compaction
// threshold, when it is one compacted copy (merge.go).
//
// The happens-before argument: all writes building a new snapshot's
// relations happen before the SnapshotStore's atomic pointer store
// (release); a reader's atomic load (acquire) of that pointer therefore
// observes fully-built relations. Since published relations are never
// mutated again — PublishState marks them, and the writer's merges replace a
// marked version with a fresh one — a reader holding a snapshot sees exactly
// one committed state, never a half-applied batch. "Never mutated" is exact
// at the byte level: a new version may write into the spare capacity behind
// a published version's arrays, but never into a byte below their lengths,
// and a version's accessors clip what they hand out to those lengths.

// Snapshot is one immutable published state. It must not be mutated after
// publication; the accessors hand out relations that are safe for any
// number of concurrent readers.
type Snapshot struct {
	epoch int64
	rels  map[string]*Relation
	mats  map[int]*Relation
	db    *Database
}

// Epoch returns the snapshot's sequence number: 0 is the initial materialized
// state (or the store's StartAt), and each committed refresh batch publishes
// the next epoch.
func (s *Snapshot) Epoch() int64 { return s.epoch }

// Relation returns the named base relation at this snapshot, or nil.
func (s *Snapshot) Relation(name string) *Relation { return s.rels[name] }

// Mat returns the materialized result of an equivalence node at this
// snapshot, or nil if the node is not materialized.
func (s *Snapshot) Mat(id int) *Relation { return s.mats[id] }

// MatCount reports how many materialized results the snapshot carries.
func (s *Snapshot) MatCount() int { return len(s.mats) }

// Mats returns a copy of the materialized-result map (id → relation). The
// relations are the snapshot's immutable versions and must not be mutated.
func (s *Snapshot) Mats() map[int]*Relation {
	out := make(map[int]*Relation, len(s.mats))
	for id, r := range s.mats {
		out[id] = r
	}
	return out
}

// Database returns a read-only database view over the snapshot's base
// relations, suitable for executing plans against. The view shares the
// snapshot's relations and must not be mutated; its delta pairs are empty.
func (s *Snapshot) Database() *Database { return s.db }

// SnapshotStore publishes snapshots from a single writer to any number of
// readers. The zero value is NOT ready to use; create with NewSnapshotStore.
type SnapshotStore struct {
	cur atomic.Pointer[Snapshot]

	mu     sync.Mutex
	retain bool
	keep   int
	base   int64
	hist   []*Snapshot
}

// NewSnapshotStore returns an empty store (Current is nil until the first
// PublishState).
func NewSnapshotStore() *SnapshotStore { return &SnapshotStore{} }

// Current returns the most recently published snapshot, or nil. Safe from
// any goroutine.
func (st *SnapshotStore) Current() *Snapshot { return st.cur.Load() }

// StartAt seeds the epoch numbering: the first PublishState publishes this
// epoch instead of 0. The recovery boot path uses it so the re-published
// recovered state carries the same epoch it had before the crash, and replay
// then counts on from there. Must be called before the first PublishState.
func (st *SnapshotStore) StartAt(epoch int64) {
	if st.cur.Load() != nil {
		panic("storage: StartAt after first publish")
	}
	st.mu.Lock()
	st.base = epoch
	st.mu.Unlock()
}

// RetainHistory makes the store keep every snapshot it publishes, so tests
// can check results against the exact state of any committed epoch. Retention
// pins every relation version ever published; enable it only for bounded
// runs.
func (st *SnapshotStore) RetainHistory(on bool) {
	st.mu.Lock()
	st.retain = on
	st.mu.Unlock()
}

// KeepRecent makes the store retain a sliding window of the n most recently
// published snapshots (seeded with the current one, if any), so readers can
// pin an epoch slightly behind the writer: the sharded serving gate executes
// at its committed epoch while the local store publishes ahead during the
// next refresh cycle. Unlike RetainHistory the window is bounded — each
// publish drops versions that fall out of it. n <= 0 disables the window.
// Full retention, when enabled, subsumes it.
func (st *SnapshotStore) KeepRecent(n int) {
	st.mu.Lock()
	st.keep = n
	if n > 0 && len(st.hist) == 0 {
		if cur := st.cur.Load(); cur != nil {
			st.hist = append(st.hist, cur)
		}
	}
	st.mu.Unlock()
}

// History returns the retained snapshots in publication order.
func (st *SnapshotStore) History() []*Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*Snapshot(nil), st.hist...)
}

// At returns the retained snapshot with the given epoch, or nil.
func (st *SnapshotStore) At(epoch int64) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.hist {
		if s.epoch == epoch {
			return s
		}
	}
	return nil
}

// PublishState captures the writer's live state — the database's base
// relations and the materialization map — into a new snapshot and publishes
// it. Only the single writer may call it, once per committed state; the maps
// are copied (so the writer may keep swapping entries) but the relations are
// shared and marked published, which is the copy-on-write contract: the
// writer's merge and fold entry points never mutate a published relation,
// returning a fresh version instead (merge.go).
func (st *SnapshotStore) PublishState(db *Database, mats map[int]*Relation) *Snapshot {
	s := &Snapshot{
		rels: make(map[string]*Relation, len(db.relations)),
		mats: make(map[int]*Relation, len(mats)),
	}
	for n, r := range db.relations {
		r.published.Store(true)
		s.rels[n] = r
	}
	for id, r := range mats {
		r.published.Store(true)
		s.mats[id] = r
	}
	s.db = &Database{relations: s.rels, deltas: make(map[string]*Delta)}
	if prev := st.cur.Load(); prev != nil {
		s.epoch = prev.epoch + 1
	} else {
		st.mu.Lock()
		s.epoch = st.base
		st.mu.Unlock()
	}
	st.mu.Lock()
	switch {
	case st.retain:
		st.hist = append(st.hist, s)
	case st.keep > 0:
		st.hist = append(st.hist, s)
		if len(st.hist) > st.keep {
			// Copy rather than reslice so evicted snapshots are not pinned by
			// the backing array.
			st.hist = append([]*Snapshot(nil), st.hist[len(st.hist)-st.keep:]...)
		}
	}
	st.mu.Unlock()
	st.cur.Store(s)
	return s
}
