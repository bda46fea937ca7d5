package core

import (
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/wal"
)

// buildDurablePlan rebuilds the five-view plan from first inputs — the same
// calls a recovering process makes, exercising the "plan is reconstructed
// deterministically" half of the recovery contract.
func buildDurablePlan(t testing.TB, sf, pct float64) (*MaintenancePlan, *storage.Database, *catalog.Catalog) {
	t.Helper()
	cat := tpcd.NewCatalog(sf, true)
	db := tpcd.Generate(cat, sf, 7)
	sys := NewSystem(cat, Options{})
	for _, v := range tpcd.ViewSet5(cat, true) {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			t.Fatal(err)
		}
	}
	u := diff.UniformPercent(cat, updatedRels, pct)
	return sys.OptimizeGreedy(u, greedy.DefaultConfig()), db, cat
}

// driveStream feeds whole LogUniformUpdates-equivalent batches through the
// ingest queue, one seed per batch, flushing between seeds so each stream's
// delete candidates (sampled from the snapshot it was built against) are
// still present when applied.
func driveStream(t testing.TB, rt *Runtime, cat *catalog.Catalog, pct float64, seeds []int64) int {
	t.Helper()
	total := 0
	for _, seed := range seeds {
		s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), updatedRels, pct, seed)
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			if err := rt.Ingest(op); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := rt.FlushIngest(); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

// sameState asserts b reproduces a: base relations and non-aggregate
// maintained results row-for-row identical, aggregates multiset-equal (their
// row order is map-iteration order — see the determinism contract).
func sameState(t *testing.T, stage string, a, b *Runtime) {
	t.Helper()
	for _, name := range a.Ex.DB.Names() {
		ra, rb := a.Ex.DB.MustRelation(name), b.Ex.DB.MustRelation(name)
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: base %s: %d rows, want %d", stage, name, rb.Len(), ra.Len())
		}
		for i, row := range ra.Rows() {
			if !reflect.DeepEqual(rb.Rows()[i], row) {
				t.Fatalf("%s: base %s row %d differs", stage, name, i)
			}
		}
	}
	if len(a.Ex.Mat) != len(b.Ex.Mat) {
		t.Fatalf("%s: %d materializations, want %d", stage, len(b.Ex.Mat), len(a.Ex.Mat))
	}
	for id, ma := range a.Ex.Mat {
		mb, ok := b.Ex.Mat[id]
		if !ok {
			t.Fatalf("%s: e%d not materialized after recovery", stage, id)
		}
		e := a.Plan.System.Dag.Equivs[id]
		if e.Ops[0].Kind == dag.OpAggregate {
			if !storage.EqualMultiset(ma, mb) {
				t.Fatalf("%s: aggregate e%d not multiset-equal", stage, id)
			}
			continue
		}
		if ma.Len() != mb.Len() {
			t.Fatalf("%s: e%d: %d rows, want %d", stage, id, mb.Len(), ma.Len())
		}
		for i, row := range ma.Rows() {
			if !reflect.DeepEqual(mb.Rows()[i], row) {
				t.Fatalf("%s: e%d row %d differs (order is part of the contract)", stage, id, i)
			}
		}
	}
}

// Fresh boot → stream three batches → verify against recomputation; clean
// close → reopen recovers with zero replay at the same epoch and identical
// state; a third open with the manifest rewound to the boot spill replays
// every batch through the refresh path and must land in the same state —
// replay and live application commute.
func TestDurableIngestRecoverReplay(t *testing.T) {
	dir := t.TempDir()
	const sf, pct = 0.002, 5
	open := func() (*Runtime, *RecoveryInfo) {
		plan, db, _ := buildDurablePlan(t, sf, pct)
		rt, info, err := plan.OpenDurable(db, DurableOptions{
			Dir:             dir,
			SpillEvery:      -1, // only boot/close spills; keep every batch replayable
			KeepAllSegments: true,
			Queue:           ingest.Config{Capacity: 512, MaxBatchRows: 64, MaxBatchWait: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt, info
	}

	rtA, info := open()
	if info.Recovered {
		t.Fatal("fresh directory reported recovered")
	}
	_, _, cat := buildDurablePlan(t, sf, pct)
	if err := rtA.StartIngest(); err != nil {
		t.Fatal(err)
	}
	n := driveStream(t, rtA, cat, pct, []int64{101, 102, 103})
	if n == 0 {
		t.Fatal("stream produced no ops")
	}
	st := rtA.DurableStats()
	if st.LastBatch == 0 || st.Epoch == 0 || st.WAL.Appends == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Epoch != st.LastBatch {
		t.Fatalf("epoch %d after %d batches, want %d per batch",
			st.Epoch, st.LastBatch, 1)
	}
	if st.Staleness <= 0 {
		t.Fatalf("staleness EWMA not tracked: %v", st.Staleness)
	}
	if err := rtA.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := rtA.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the close spill makes recovery replay-free.
	rtB, info := open()
	if !info.Recovered || info.ReplayedBatches != 0 {
		t.Fatalf("clean reopen: %+v, want recovered with 0 replayed", info)
	}
	if info.Epoch != st.Epoch {
		t.Fatalf("recovered epoch %d, want %d", info.Epoch, st.Epoch)
	}
	sameState(t, "clean reopen", rtA, rtB)
	if err := rtB.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := rtB.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	// Rewind the manifest to the boot spill (batch 0): the next open must
	// replay the full batch history and converge to the same state.
	if err := wal.WriteManifest(dir, &wal.Manifest{
		Snapshot: wal.SpillName(0), SnapshotBatch: 0, SnapshotEpoch: 0, KeepFromSegment: 0,
	}); err != nil {
		t.Fatal(err)
	}
	rtC, info := open()
	if !info.Recovered || int64(info.ReplayedBatches) != st.LastBatch {
		t.Fatalf("rewound reopen: %+v, want %d replayed", info, st.LastBatch)
	}
	sameState(t, "full replay", rtA, rtC)
	if err := rtC.Verify(); err != nil {
		t.Fatal(err)
	}
	// Recovered runtimes serve queries on their recovered epoch sequence.
	rtC.EnableServing(ServeOptions{})
	res, err := rtC.Query(serveQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != st.Epoch {
		t.Fatalf("query epoch %d, want %d", res.Epoch, st.Epoch)
	}

	// Recover-then-continue: a recovered runtime must treat its replayed
	// batches as history, not as progress against newly admitted ops
	// (regression: replay primed appliedOps, so FlushIngest returned before
	// live ops were applied and Verify raced the ingest loop's Refresh).
	if err := rtC.StartIngest(); err != nil {
		t.Fatal(err)
	}
	preBatch := rtC.DurableStats().LastBatch
	if n := driveStream(t, rtC, cat, pct, []int64{104}); n == 0 {
		t.Fatal("post-recovery stream produced no ops")
	}
	if post := rtC.DurableStats().LastBatch; post <= preBatch {
		t.Fatalf("flush returned with no batch applied after recovery (batch %d → %d)", preBatch, post)
	}
	if err := rtC.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := rtC.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// Periodic spills fire, prune the log behind them, and the pruned directory
// still recovers to the same state.
func TestDurablePeriodicSpillAndPrune(t *testing.T) {
	dir := t.TempDir()
	const sf, pct = 0.002, 4
	plan, db, cat := buildDurablePlan(t, sf, pct)
	rt, _, err := plan.OpenDurable(db, DurableOptions{
		Dir:        dir,
		SpillEvery: 2,
		Queue:      ingest.Config{Capacity: 512, MaxBatchRows: 32, MaxBatchWait: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StartIngest(); err != nil {
		t.Fatal(err)
	}
	driveStream(t, rt, cat, pct, []int64{7, 8, 9, 10})
	if err := rt.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	if st := rt.DurableStats(); st.Spills < 2 {
		t.Fatalf("spills = %d, want periodic spills to have fired", st.Spills)
	}

	plan2, db2, _ := buildDurablePlan(t, sf, pct)
	rt2, info, err := plan2.OpenDurable(db2, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered {
		t.Fatal("pruned directory did not recover")
	}
	sameState(t, "after prune", rt, rt2)
	if err := rt2.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// Backpressure: with a slowed refresh loop, Block producers never see the
// queue exceed its capacity and lose nothing; Shed producers get ErrShed and
// the drop is counted.
func TestDurableBackpressure(t *testing.T) {
	run := func(policy ingest.Policy) (*Runtime, int, int) {
		plan, db, cat := buildDurablePlan(t, 0.002, 5)
		rt, _, err := plan.OpenDurable(db, DurableOptions{
			Dir:          t.TempDir(),
			SpillEvery:   -1,
			RefreshDelay: 2 * time.Millisecond,
			Queue: ingest.Config{
				Capacity: 16, MaxBatchRows: 8, MaxBatchWait: time.Millisecond,
				Policy: policy,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.StartIngest(); err != nil {
			t.Fatal(err)
		}
		var maxDepth int
		var mu sync.Mutex
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					d := rt.DurableStats().Queue.Depth
					mu.Lock()
					if d > maxDepth {
						maxDepth = d
					}
					mu.Unlock()
				}
			}
		}()
		s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), updatedRels, 5, 201)
		sent, shed := 0, 0
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			switch err := rt.Ingest(op); err {
			case nil:
				sent++
			case ErrShed:
				shed++
			default:
				t.Fatal(err)
			}
		}
		if err := rt.FlushIngest(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		mu.Lock()
		defer mu.Unlock()
		if maxDepth > 16 {
			t.Fatalf("queue depth reached %d, bound is 16", maxDepth)
		}
		return rt, sent, shed
	}

	rt, sent, shed := run(ingest.Block)
	if shed != 0 {
		t.Fatalf("Block policy shed %d ops", shed)
	}
	if st := rt.DurableStats(); st.Queue.Shed != 0 || st.Queue.Enqueued != int64(sent) {
		t.Fatalf("Block stats %+v, want %d enqueued, 0 shed", st.Queue, sent)
	}
	if err := rt.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	rt, _, shed = run(ingest.Shed)
	if shed == 0 {
		t.Fatal("Shed policy never shed despite slowed refresh")
	}
	if st := rt.DurableStats(); st.Queue.Shed != int64(shed) {
		t.Fatalf("shed counter %d, want %d", st.Queue.Shed, shed)
	}
	if err := rt.CloseDurable(); err != nil {
		t.Fatal(err)
	}
}

// A failed durability-maintenance step (here: every spill and rotation
// failing after the WAL directory vanishes) must stop ingestion promptly:
// the sticky error closes the queue, the loop exits, and Ingest, FlushIngest
// and StopIngest all surface the failure — the engine never keeps accepting
// ops it can no longer make durable.
func TestDurableSpillFailureStopsIngest(t *testing.T) {
	dir := t.TempDir()
	plan, db, cat := buildDurablePlan(t, 0.002, 5)
	rt, _, err := plan.OpenDurable(db, DurableOptions{
		Dir:        dir,
		SpillEvery: 1, // spill (and rotate) after every batch
		Queue:      ingest.Config{Capacity: 512, MaxBatchRows: 16, MaxBatchWait: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StartIngest(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	// Stream inserts only (fresh keys never conflict with the loop applying
	// concurrently) until the spill failure propagates to admission.
	var ingErr error
	seed := int64(301)
	deadline := time.Now().Add(30 * time.Second)
	for ingErr == nil && time.Now().Before(deadline) {
		s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), updatedRels, 5, seed)
		seed++
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			if op.Del {
				continue
			}
			if ingErr = rt.Ingest(op); ingErr != nil {
				break
			}
		}
	}
	if ingErr == nil {
		t.Fatal("Ingest kept accepting ops after durability maintenance failed")
	}
	if err := rt.FlushIngest(); err == nil {
		t.Error("FlushIngest must surface the durability error")
	}
	if err := rt.StopIngest(); err == nil {
		t.Error("StopIngest must surface the durability error")
	}
	if err := rt.CloseDurable(); err == nil {
		t.Error("CloseDurable must surface the durability error")
	}
}

// Admission control: unknown relations, relations outside the update spec,
// and arity mismatches are rejected at Ingest, before anything is queued.
func TestDurableIngestAdmission(t *testing.T) {
	plan, db, cat := buildDurablePlan(t, 0.002, 5)
	rt, _, err := plan.OpenDurable(db, DurableOptions{Dir: t.TempDir(), SpillEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.CloseDurable()
	if err := rt.Ingest(ingest.Op{Rel: "nope"}); err == nil {
		t.Error("unknown relation admitted")
	}
	// supplier exists but is not in the update spec (customer/orders/lineitem).
	if err := rt.Ingest(ingest.Op{Rel: "supplier"}); err == nil {
		t.Error("relation outside the update spec admitted")
	}
	s := tpcd.NewUpdateStream(cat, db, []string{"orders"}, 5, 1)
	op, _ := s.Next()
	op.Tuple = op.Tuple[:len(op.Tuple)-1]
	if err := rt.Ingest(op); err == nil {
		t.Error("arity mismatch admitted")
	}
}

// API misuse surfaces as errors: durable entry points on a non-durable
// runtime, double StartIngest, and ingestion after shutdown.
func TestDurableAPIMisuse(t *testing.T) {
	plain := buildServingRuntime(t, 0.002, 5)
	if err := plain.Ingest(ingest.Op{Rel: "orders"}); err == nil {
		t.Error("Ingest on a non-durable runtime must fail")
	}
	if err := plain.StartIngest(); err == nil {
		t.Error("StartIngest on a non-durable runtime must fail")
	}
	if err := plain.FlushIngest(); err == nil {
		t.Error("FlushIngest on a non-durable runtime must fail")
	}
	if err := plain.StopIngest(); err != nil {
		t.Errorf("StopIngest on a non-durable runtime is a no-op, got %v", err)
	}
	if st := plain.DurableStats(); st.LastBatch != 0 || st.WAL.Appends != 0 {
		t.Errorf("non-durable runtime has durable stats: %+v", st)
	}

	plan, db, cat := buildDurablePlan(t, 0.002, 5)
	rt, _, err := plan.OpenDurable(db, DurableOptions{Dir: t.TempDir(), SpillEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StartIngest(); err != nil {
		t.Fatal(err)
	}
	if err := rt.StartIngest(); err == nil {
		t.Error("second StartIngest must fail")
	}
	if err := rt.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), []string{"orders"}, 5, 3)
	op, _ := s.Next()
	if err := rt.Ingest(op); err == nil {
		t.Error("Ingest after CloseDurable must fail")
	}
	if err := rt.FlushIngest(); err != nil {
		t.Errorf("FlushIngest after clean close: %v", err)
	}
}

// Durability composed with serving: readers loop Query while streamed
// batches are group-committed to the WAL and published through the ingest
// loop. No query may fail, each reader's epochs must never go backwards, the
// maintained views must verify afterwards, and the log must fsync exactly
// when asked to.
func TestDurableIngestWithConcurrentReaders(t *testing.T) {
	const sf, pct, readers = 0.002, 4, 3
	for _, fsync := range []bool{false, true} {
		plan, db, cat := buildDurablePlan(t, sf, pct)
		rt, _, err := plan.OpenDurable(db, DurableOptions{
			Dir:          t.TempDir(),
			Fsync:        fsync,
			CommitWindow: 2 * time.Millisecond,
			Queue:        ingest.Config{MaxBatchRows: 64, MaxBatchWait: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.EnableServing(ServeOptions{})
		if err := rt.StartIngest(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		done := make(chan struct{})
		answered := make([]int, readers)
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				last := int64(-1)
				for i := 0; ; i++ {
					select {
					case <-done:
						if answered[w] > 0 {
							return
						}
					default:
					}
					res, err := rt.Query(serveQueries[(i+w)%len(serveQueries)])
					if err != nil {
						t.Errorf("fsync=%v reader %d: %v", fsync, w, err)
						return
					}
					if res.Epoch < last {
						t.Errorf("fsync=%v reader %d: epoch went back from %d to %d", fsync, w, last, res.Epoch)
						return
					}
					last = res.Epoch
					answered[w]++
				}
			}(w)
		}
		driveStream(t, rt, cat, pct, []int64{1001, 1002})
		close(done)
		wg.Wait()

		if err := rt.Verify(); err != nil {
			t.Fatalf("fsync=%v: %v", fsync, err)
		}
		st := rt.DurableStats()
		if st.WAL.Appends == 0 || st.Epoch == 0 {
			t.Fatalf("fsync=%v: nothing committed: %+v", fsync, st)
		}
		if fsync && st.WAL.Syncs == 0 {
			t.Fatal("fsync on but no syncs recorded")
		}
		if !fsync && st.WAL.Syncs != 0 {
			t.Fatalf("fsync off but %d syncs recorded", st.WAL.Syncs)
		}
		if err := rt.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	}
}

// FlushIngest cuts the pending micro-batch instead of waiting out the
// queue's linger: with an hour of MaxBatchWait, two flushed streams are
// applied and published well inside the deadline. The flushes run on their
// own goroutine so a flush that lingers fails the test instead of hanging
// it.
func TestFlushIngestDoesNotWaitForLinger(t *testing.T) {
	plan, db, cat := buildDurablePlan(t, 0.002, 5)
	rt, _, err := plan.OpenDurable(db, DurableOptions{
		Dir:        t.TempDir(),
		SpillEvery: -1,
		Queue:      ingest.Config{MaxBatchWait: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.CloseDurable()
	if err := rt.StartIngest(); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() {
		for _, seed := range []int64{1101, 1102} {
			s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), updatedRels, 5, seed)
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if err := rt.Ingest(op); err != nil {
					flushed <- err
					return
				}
			}
			if err := rt.FlushIngest(); err != nil {
				flushed <- err
				return
			}
		}
		flushed <- nil
	}()
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-timer.C:
		t.Fatal("FlushIngest still waiting after 10s: the pending micro-batch waited out MaxBatchWait")
	}
	st := rt.DurableStats()
	if st.Queue.Depth != 0 || st.Epoch < 2 {
		t.Fatalf("after two flushes: depth %d, epoch %d; want an empty queue and at least two epochs", st.Queue.Depth, st.Epoch)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushIngestDoesNotWaitForCommitWindow holds end to end that group
// commit never waits for more appends: opening the runtime (its anchoring
// rotation) and flushing a batch with fsync on must not wait out even an
// hour-long CommitWindow.
func TestFlushIngestDoesNotWaitForCommitWindow(t *testing.T) {
	plan, db, cat := buildDurablePlan(t, 0.002, 5)
	dir := t.TempDir()
	type result struct {
		rt  *Runtime
		err error
	}
	flushed := make(chan result, 1)
	go func() {
		rt, _, err := plan.OpenDurable(db, DurableOptions{
			Dir:          dir,
			Fsync:        true,
			CommitWindow: time.Hour,
			SpillEvery:   -1,
		})
		if err == nil {
			err = rt.StartIngest()
		}
		if err == nil {
			s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), updatedRels, 5, 1201)
			for i := 0; i < 8 && err == nil; i++ {
				op, ok := s.Next()
				if !ok {
					break
				}
				err = rt.Ingest(op)
			}
		}
		if err == nil {
			err = rt.FlushIngest()
		}
		flushed <- result{rt, err}
	}()
	// The runtime is closed only once the flush has returned: a daemon
	// sleeping out the hour-long window would hold Close for that hour too.
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	var rt *Runtime
	select {
	case r := <-flushed:
		rt = r.rt
		if rt != nil {
			defer rt.CloseDurable()
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-timer.C:
		t.Fatal("FlushIngest still waiting after 10s: a lone appender's batch waited out CommitWindow")
	}
	st := rt.DurableStats()
	if st.Queue.Depth != 0 || st.Epoch < 1 {
		t.Fatalf("after a flush: depth %d, epoch %d; want an empty queue and at least one epoch", st.Queue.Depth, st.Epoch)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}
