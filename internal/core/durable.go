package core

// Durable epochs over the WAL. OpenDurable boots a Runtime whose refresh
// cycle is write-ahead logged: every ingest batch is made durable (group-
// committed, optionally fsynced) before it is applied and its epochs
// published, so a crash at any instant loses nothing a reader could have
// observed. Recovery loads the last snapshot spill, replays the durable
// batch suffix through the ordinary differential refresh path (the same
// Maintainer.ApplyLoggedDelta + Refresh the live loop uses — replay and live
// application commute by construction), and re-publishes epochs until the
// log is exhausted. StartIngest then turns refresh into a continuous loop
// over a bounded ingest.Queue: micro-batches form by size/time, producers
// feel backpressure per policy, and staleness/queue/commit-latency counters
// are exposed through DurableStats.
//
// Limitation: recovery reconstructs the maintenance plan from the same
// inputs (views, update spec, optimizer config), relying on the optimizer
// being deterministic. Adaptive re-selection (EnableAdapt/Adapt) changes the
// materialized set at runtime and is not durable; it is rejected up front on
// a durable runtime (errAdaptDurable), and a directory a foreign build wrote
// with a different materialized set still trips spill-mismatch detection
// during recovery.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrShed reports that the ingest queue was full under the Shed policy and
// the op was dropped.
var ErrShed = errors.New("core: ingest queue full, op shed")

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the WAL directory (segments, spills, manifest).
	Dir string
	// Fsync makes batches durable against machine crashes, not just process
	// crashes. Group commit amortizes the fsyncs over the commit window.
	Fsync bool
	// CommitWindow is the group-commit coalescing window (default 2ms).
	CommitWindow time.Duration
	// SegmentBytes is the segment rotation threshold (default 4 MB).
	SegmentBytes int64
	// SyncBytes short-circuits the commit window (default 1 MB).
	SyncBytes int
	// SpillEvery is the number of batches between snapshot spills (default
	// 64; negative disables periodic spills).
	SpillEvery int
	// KeepAllSegments disables log pruning after spills, keeping the full
	// history replayable from batch 1 (used by the crash tests to verify
	// recovery against a from-scratch replay).
	KeepAllSegments bool
	// Queue configures the bounded ingest queue (capacity, micro-batch
	// size/time bounds, Block vs Shed).
	Queue ingest.Config
	// RefreshDelay is a test/bench hook: an artificial delay added before
	// each live batch's refresh, to simulate refresh falling behind and
	// exercise backpressure.
	RefreshDelay time.Duration
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SpillEvery == 0 {
		o.SpillEvery = 64
	}
	return o
}

// RecoveryInfo reports what booting from the WAL directory found.
type RecoveryInfo struct {
	// Recovered is true when a manifest existed: the state was rebuilt from
	// spill + replay rather than from the caller's database.
	Recovered bool
	// SpillBatch/SpillEpoch identify the loaded spill (0/0 on fresh boot).
	SpillBatch int64
	SpillEpoch int64
	// ReplayedBatches is how many durable batches were replayed past the
	// spill.
	ReplayedBatches int
	// Epoch is the published epoch after boot.
	Epoch int64
}

// DurableStats is the durability/ingestion counter set exposed through the
// Runtime.
type DurableStats struct {
	// LastBatch is the sequence number of the last applied batch.
	LastBatch int64
	// Epoch is the currently published snapshot epoch.
	Epoch int64
	// Staleness is an exponentially weighted moving average of op
	// enqueue→epoch-publish latency (how far the freshest published epoch
	// lags admission).
	Staleness time.Duration
	// AvgCommitLatency is the mean time an append blocked on the group-
	// commit sync barrier.
	AvgCommitLatency time.Duration
	// Spills counts completed snapshot spills.
	Spills int64
	// Queue is the ingest queue's counter set (depth, shed, …).
	Queue ingest.Stats
	// WAL is the log's counter set (appends, syncs, bytes, rotations).
	WAL wal.Stats
}

// durable is the Runtime's durability state: the log, the queue, and the
// continuous-ingest loop bookkeeping.
type durable struct {
	opts DurableOptions
	log  *wal.Log
	q    *ingest.Queue

	// arity caches relation schema arities for the producer-side admission
	// check (producers must not read the live database, which the writer
	// swaps under COW).
	arity map[string]int

	// applied is writer-goroutine state; appliedSeq/appliedOps mirror it for
	// other goroutines.
	applied    int64
	appliedSeq atomic.Int64
	appliedOps atomic.Int64
	lastSpill  int64

	stalenessNanos atomic.Int64
	spills         atomic.Int64
	spilling       atomic.Bool
	spillWG        sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	err      error
	looping  bool
	started  atomic.Bool
	loopDone chan struct{}
}

// setErr records the first durability error, wakes flushers, and closes the
// queue: once durability maintenance has failed (append, apply, spill —
// including a background spill), admission must stop promptly rather than
// letting producers keep feeding a loop that can no longer make their ops
// durable.
func (d *durable) setErr(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	d.q.Close()
}

// loadErr returns the sticky durability error, if any.
func (d *durable) loadErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// OpenDurable boots a WAL-backed runtime for this plan. On a fresh directory
// the caller's database is the initial state: it is spilled (with the
// manifest) before the function returns, so from the first appended batch
// onward the directory is self-contained. On a directory with a manifest the
// caller's database contents are REPLACED by the recovered state — the
// caller supplies it for its schemas; the plan must have been rebuilt from
// the same view definitions and optimizer configuration as the original run.
func (p *MaintenancePlan) OpenDurable(db *storage.Database, opts DurableOptions) (*Runtime, *RecoveryInfo, error) {
	opts = opts.withDefaults()
	log, rec, err := wal.Open(opts.Dir, wal.Options{
		Fsync:        opts.Fsync,
		CommitWindow: opts.CommitWindow,
		SyncBytes:    opts.SyncBytes,
		SegmentBytes: opts.SegmentBytes,
		KeepAll:      opts.KeepAllSegments,
	})
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Runtime, *RecoveryInfo, error) {
		log.Close()
		return nil, nil, err
	}

	info := &RecoveryInfo{}
	var sp *wal.Spill
	if rec.Manifest != nil {
		sp, err = wal.ReadSpill(opts.Dir, rec.Manifest.Snapshot)
		if err != nil {
			return fail(err)
		}
		info.Recovered = true
		info.SpillBatch, info.SpillEpoch = sp.Batch, sp.Epoch
		if err := installSpillRels(db, sp); err != nil {
			return fail(err)
		}
	}

	ex := exec.NewExecutor(db)
	ex.Par = p.Eval.Par
	ex.Sizer = p.Engine.FinalRows
	if err := p.materializeForBoot(ex, sp); err != nil {
		return fail(err)
	}
	rt := &Runtime{Plan: p, Ex: ex, Mt: exec.NewMaintainer(ex, p.Engine, p.Eval)}

	st := storage.NewSnapshotStore()
	if sp != nil {
		st.StartAt(sp.Epoch)
	}
	st.PublishState(ex.DB, ex.Mat)
	rt.Mt.Snap = st

	d := &durable{opts: opts, log: log, q: ingest.NewQueue(opts.Queue), loopDone: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	d.arity = make(map[string]int)
	for _, name := range db.Names() {
		d.arity[name] = len(db.MustRelation(name).Schema())
	}
	if sp != nil {
		d.applied = sp.Batch
		d.appliedSeq.Store(sp.Batch)
	}
	rt.dur = d

	for _, b := range rec.Batches {
		if b.Seq != d.applied+1 {
			return fail(fmt.Errorf("core: replay gap: have batch %d after %d", b.Seq, d.applied))
		}
		if err := d.applyBatch(rt, b); err != nil {
			return fail(fmt.Errorf("core: replaying batch %d: %w", b.Seq, err))
		}
	}
	info.ReplayedBatches = len(rec.Batches)
	info.Epoch = st.Current().Epoch()
	d.lastSpill = d.applied
	// Boot replay went through applyBatch, which counted replayed rows into
	// appliedOps. FlushIngest compares appliedOps against the queue's
	// Enqueued counter, which starts at 0 — reset so only live-admitted ops
	// count, else a recovered runtime's flush returns before newly admitted
	// ops are applied.
	d.appliedOps.Store(0)

	// Anchor the directory: fresh boots get their initial spill+manifest (so
	// a manifest-less directory always means "no recoverable state"), and
	// recovered boots that replayed anything re-anchor to shorten the next
	// recovery.
	if sp == nil || len(rec.Batches) > 0 {
		if err := d.spillSync(rt); err != nil {
			return fail(err)
		}
	}
	return rt, info, nil
}

// installSpillRels replaces the database's base relation contents with the
// spilled rows. Every relation of the snapshot must exist with matching
// arity — the schemas come from the caller's catalog, the rows from disk.
func installSpillRels(db *storage.Database, sp *wal.Spill) error {
	for name, rows := range sp.Rels {
		r := db.Relation(name)
		if r == nil {
			return fmt.Errorf("core: spill has relation %q unknown to the catalog", name)
		}
		arity := len(r.Schema())
		for _, t := range rows {
			if len(t) != arity {
				return fmt.Errorf("core: spill relation %q: tuple arity %d, schema arity %d",
					name, len(t), arity)
			}
		}
		r.ReplaceRows(rows)
	}
	return nil
}

// materializeForBoot fills the executor's materialization map. Fresh boot
// (sp nil) computes everything from the database, exactly like NewRuntime.
// Recovery loads non-aggregate derived results verbatim from the spill —
// preserving their maintained row order, so subsequent differential merges
// reproduce the byte-identical sequence a never-crashed run produces — and
// rebuilds only aggregates (whose merge state is not spilled; their row
// order is map-iteration order, a multiset contract, see ARCHITECTURE.md)
// and base-table aliases from the recovered bases.
func (p *MaintenancePlan) materializeForBoot(ex *exec.Executor, sp *wal.Spill) error {
	ids := make([]int, 0, len(p.Eval.MS.Fulls.Full))
	for id := range p.Eval.MS.Fulls.Full {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := p.System.Dag.Equivs[id]
		if sp != nil && !e.IsTable && e.Ops[0].Kind != dag.OpAggregate {
			rows, ok := sp.Mats[id]
			if !ok {
				return fmt.Errorf("core: spill is missing materialized e%d; was the plan rebuilt with different views or optimizer config?", id)
			}
			arity := len(e.Schema)
			for _, t := range rows {
				if len(t) != arity {
					return fmt.Errorf("core: spill mat e%d: tuple arity %d, schema arity %d", id, len(t), arity)
				}
			}
			rel := storage.NewRelation(e.Schema)
			rel.ReplaceRows(rows)
			ex.Mat[id] = rel
			continue
		}
		ex.MaterializeNode(e)
	}
	if sp != nil {
		for id := range sp.Mats {
			if !p.Eval.MS.Fulls.Full[id] {
				return fmt.Errorf("core: spill has materialized e%d the plan does not; was the plan rebuilt with different views or optimizer config?", id)
			}
		}
	}
	return nil
}

// applyBatch stages one durable batch's deltas and runs a refresh cycle.
// Used identically by WAL replay and by the live ingest loop — that shared
// path is the recovery invariant.
func (d *durable) applyBatch(r *Runtime, b *wal.Batch) error {
	ops := 0
	for i := range b.Deltas {
		dr := &b.Deltas[i]
		if err := r.Mt.ApplyLoggedDelta(dr.Rel, dr.Del, dr.Rows); err != nil {
			return err
		}
		ops += len(dr.Rows)
	}
	r.Refresh()
	d.applied = b.Seq
	d.appliedSeq.Store(b.Seq)
	d.appliedOps.Add(int64(ops))
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// Ingest admits one streamed op: admission control (the relation must be in
// the update spec with matching tuple arity), then the bounded queue's
// policy (block or shed). Safe from any goroutine once StartIngest has run.
func (r *Runtime) Ingest(op ingest.Op) error {
	d := r.dur
	if d == nil {
		return errors.New("core: runtime has no WAL (use OpenDurable)")
	}
	if !r.Mt.En.U.Has(op.Rel) {
		return fmt.Errorf("core: relation %q not admitted: not in the update spec", op.Rel)
	}
	if want, ok := d.arity[op.Rel]; !ok || len(op.Tuple) != want {
		return fmt.Errorf("core: relation %q: tuple arity %d, schema arity %d", op.Rel, len(op.Tuple), want)
	}
	if !d.q.Enqueue(op) {
		if d.q.Config().Policy == ingest.Shed && !d.q.Closed() {
			return ErrShed
		}
		if err := d.loadErr(); err != nil {
			return fmt.Errorf("core: ingest stopped: %w", err)
		}
		return errors.New("core: ingest queue closed")
	}
	return nil
}

// loopExited reports whether the ingest loop has returned (no further
// applies are coming).
func (d *durable) loopExited() bool {
	select {
	case <-d.loopDone:
		return true
	default:
		return false
	}
}

// StartIngest launches the continuous refresh loop: drain micro-batches from
// the queue, append each to the WAL (group-committed), apply it through the
// refresh path, publish its epoch, and periodically spill. Call once; the
// loop owns all refresh activity from here on (do not call Refresh
// concurrently).
func (r *Runtime) StartIngest() error {
	d := r.dur
	if d == nil {
		return errors.New("core: runtime has no WAL (use OpenDurable)")
	}
	if !d.started.CompareAndSwap(false, true) {
		return errors.New("core: ingest already started")
	}
	go d.loop(r)
	return nil
}

// loop is the continuous ingest writer.
func (d *durable) loop(r *Runtime) {
	// LIFO: loopDone closes first, then the broadcast wakes any flusher so
	// it re-checks loopExited.
	defer func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}()
	defer close(d.loopDone)
	for {
		// A background spill failure lands via setErr while this loop is
		// elsewhere; stop before admitting, logging, or applying anything
		// further. setErr already closed the queue, so producers are
		// unblocked and new admission fails.
		if d.loadErr() != nil {
			return
		}
		ops, oldest, ok := d.q.NextBatch()
		if !ok {
			return
		}
		b := &wal.Batch{
			Seq:    d.applied + 1,
			Epoch:  r.Mt.Snap.Current().Epoch() + 1,
			Deltas: groupOps(ops),
		}
		// Durability barrier: the batch must be on disk (fsynced, under the
		// sync policy) before any of its effects become observable, so no
		// published epoch can ever be lost to a crash.
		if err := d.log.AppendBatch(b); err != nil {
			d.setErr(err)
			return
		}
		if d.opts.RefreshDelay > 0 {
			time.Sleep(d.opts.RefreshDelay)
		}
		if err := d.applyBatch(r, b); err != nil {
			d.setErr(err)
			return
		}
		lat := time.Since(oldest).Nanoseconds()
		if old := d.stalenessNanos.Load(); old == 0 {
			d.stalenessNanos.Store(lat)
		} else {
			d.stalenessNanos.Store(old - old/8 + lat/8)
		}
		if d.opts.SpillEvery > 0 && d.applied-d.lastSpill >= int64(d.opts.SpillEvery) {
			d.spillAsync(r)
		}
	}
}

// groupOps folds an op sequence into per-(relation, op-type) delta records,
// first-appearance order, preserving tuple order within each record. The
// grouping is deterministic, so replaying the logged records reproduces the
// live application exactly.
func groupOps(ops []ingest.Op) []wal.DeltaRec {
	var deltas []wal.DeltaRec
	idx := make(map[string]int)
	for _, op := range ops {
		k := op.Rel
		if op.Del {
			k += "/-"
		} else {
			k += "/+"
		}
		j, ok := idx[k]
		if !ok {
			j = len(deltas)
			deltas = append(deltas, wal.DeltaRec{Rel: op.Rel, Del: op.Del})
			idx[k] = j
		}
		deltas[j].Rows = append(deltas[j].Rows, op.Tuple)
	}
	return deltas
}

// spillAsync rotates the log at the current batch boundary and spills the
// current snapshot in the background (the snapshot is immutable, so
// serialization blocks nothing). At most one spill runs at a time.
func (d *durable) spillAsync(r *Runtime) {
	if !d.spilling.CompareAndSwap(false, true) {
		return
	}
	d.lastSpill = d.applied
	segSeq, err := d.log.Rotate()
	if err != nil {
		d.spilling.Store(false)
		d.setErr(err)
		return
	}
	sp := d.assembleSpill(r)
	d.spillWG.Add(1)
	go func() {
		defer d.spillWG.Done()
		defer d.spilling.Store(false)
		if err := d.writeSpill(sp, segSeq); err != nil {
			d.setErr(err)
		}
	}()
}

// spillSync is the synchronous form (boot anchoring, clean shutdown).
func (d *durable) spillSync(r *Runtime) error {
	segSeq, err := d.log.Rotate()
	if err != nil {
		return err
	}
	d.lastSpill = d.applied
	return d.writeSpill(d.assembleSpill(r), segSeq)
}

// assembleSpill captures the current snapshot's bases and non-aggregate
// derived results (see materializeForBoot for why aggregates are excluded).
func (d *durable) assembleSpill(r *Runtime) *wal.Spill {
	snap := r.Mt.Snap.Current()
	sp := &wal.Spill{
		Batch: d.applied,
		Epoch: snap.Epoch(),
		Rels:  make(map[string][]algebra.Tuple),
		Mats:  make(map[int][]algebra.Tuple),
	}
	for _, name := range snap.Database().Names() {
		sp.Rels[name] = snap.Relation(name).Rows()
	}
	for id, rel := range snap.Mats() {
		e := r.Plan.System.Dag.Equivs[id]
		if e.IsTable || e.Ops[0].Kind == dag.OpAggregate {
			continue
		}
		sp.Mats[id] = rel.Rows()
	}
	return sp
}

// writeSpill serializes the spill, swings the manifest to it, and prunes
// segments and spills behind the new horizon.
func (d *durable) writeSpill(sp *wal.Spill, keepFromSeg int64) error {
	name, err := wal.WriteSpill(d.opts.Dir, sp)
	if err != nil {
		return err
	}
	m := &wal.Manifest{
		Snapshot:        name,
		SnapshotBatch:   sp.Batch,
		SnapshotEpoch:   sp.Epoch,
		KeepFromSegment: keepFromSeg,
	}
	if err := wal.WriteManifest(d.opts.Dir, m); err != nil {
		return err
	}
	if !d.opts.KeepAllSegments {
		wal.Prune(d.opts.Dir, m)
	}
	d.spills.Add(1)
	return nil
}

// FlushIngest blocks until every op admitted so far has been applied and its
// epochs published (quiesce the producers first — concurrent admission keeps
// moving the goal). Returns the loop's error if ingestion failed.
func (r *Runtime) FlushIngest() error {
	d := r.dur
	if d == nil {
		return errors.New("core: runtime has no WAL (use OpenDurable)")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.err == nil && d.appliedOps.Load() < d.q.Stats().Enqueued && !d.loopExited() {
		d.cond.Wait()
	}
	return d.err
}

// StopIngest closes the queue, drains what is already admitted, and stops
// the loop.
func (r *Runtime) StopIngest() error {
	d := r.dur
	if d == nil {
		return nil
	}
	d.q.Close()
	if d.started.Load() {
		<-d.loopDone
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// CloseDurable stops ingestion, takes a final spill (so the next boot
// replays nothing), waits out background spills, and closes the log.
func (r *Runtime) CloseDurable() error {
	d := r.dur
	if d == nil {
		return nil
	}
	err := r.StopIngest()
	d.spillWG.Wait()
	if err == nil && d.applied > d.lastSpill {
		err = d.spillSync(r)
	}
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// DurableStats returns the durability/ingestion counters (zero-valued on a
// non-durable runtime).
func (r *Runtime) DurableStats() DurableStats {
	d := r.dur
	if d == nil {
		return DurableStats{}
	}
	ws := d.log.Stats()
	st := DurableStats{
		LastBatch: d.appliedSeq.Load(),
		Staleness: time.Duration(d.stalenessNanos.Load()),
		Spills:    d.spills.Load(),
		Queue:     d.q.Stats(),
		WAL:       ws,
	}
	if snap := r.Mt.Snap.Current(); snap != nil {
		st.Epoch = snap.Epoch()
	}
	if ws.Appends > 0 {
		st.AvgCommitLatency = time.Duration(ws.WaitNanos / ws.Appends)
	}
	return st
}
