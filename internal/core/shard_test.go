package core

// Golden shard-equivalence: the same workload refreshed and queried through
// sharded scatter-gather at shards ∈ {1, 2, 4} must answer every
// non-aggregate query byte-identically to single-node serving (aggregates:
// multiset-equal; their group order is map order even sequentially). Runs
// under -race in CI, so the coordinator/worker paths under concurrent
// queries are exercised for races too. Mirrors
// TestServePartitionCountIndependence one level up the distribution stack.

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// shardServeAnswers builds the standard serving workload, applies one update
// cycle, installs it on a fleet of the given size, and answers serveQueries
// through the scatter path. shards == 0 means plain single-node serving
// (with the dynamic cache off, matching the sharded configuration, so plan
// search is identical and non-aggregate answers are byte-comparable).
func shardServeAnswers(t *testing.T, shards int) ([]*storage.Relation, ShardStats) {
	t.Helper()
	rt := buildServingRuntime(t, 0.002, 5)
	cat := rt.Plan.System.Cat

	answers := func(query func(string) (*QueryResult, error)) []*storage.Relation {
		var out []*storage.Relation
		for _, sql := range serveQueries {
			res, err := query(sql)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Rows)
		}
		return out
	}

	if shards == 0 {
		rt.EnableServing(ServeOptions{CacheBudget: -1})
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, 99)
		rt.Refresh()
		if err := rt.Verify(); err != nil {
			t.Fatal(err)
		}
		return answers(rt.Query), ShardStats{}
	}

	sr, err := rt.EnableShardedInProc(ShardOptions{Shards: shards, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, 99)
	if err := sr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	if gate, cur := sr.Coordinator().Gate(), rt.Snapshots().Current().Epoch(); gate != cur {
		t.Fatalf("gate %d after install, current epoch %d", gate, cur)
	}
	return answers(sr.Query), sr.Stats()
}

func TestShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	aggregateIdx := map[int]bool{1: true, 2: true}

	base, _ := shardServeAnswers(t, 0)
	for _, shards := range []int{1, 2, 4} {
		got, stats := shardServeAnswers(t, shards)
		if stats.Scattered == 0 {
			t.Fatalf("shards=%d: no query went through scatter-gather (fallbacks=%d)",
				shards, stats.Fallbacks)
		}
		for i := range base {
			if !storage.EqualMultiset(base[i], got[i]) {
				t.Fatalf("shards=%d: query %d diverged as multiset (%d vs %d rows)",
					shards, i, base[i].Len(), got[i].Len())
			}
			if aggregateIdx[i] {
				continue
			}
			for r, tu := range base[i].Rows() {
				if !tu.Equal(got[i].Rows()[r]) {
					t.Fatalf("shards=%d: query %d not byte-identical at row %d", shards, i, r)
				}
			}
		}
	}
}

// TestShardedConcurrentReaders drives concurrent sharded queries against a
// refreshing writer (the serve_test concurrency shape, over the scatter
// path): every answer must multiset-equal the from-scratch recomputation at
// the epoch it claims, so no reader ever observes a torn epoch.
func TestShardedConcurrentReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	rt := buildServingRuntime(t, 0.002, 5)
	cat := rt.Plan.System.Cat
	sr, err := rt.EnableShardedInProc(ShardOptions{Shards: 3, Partitions: 6, RetainHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	sql := serveQueries[0] // non-aggregate join: the scatter fast path
	s := rt.server()
	s.mu.Lock()
	root := s.latest().roots[sql]
	s.mu.Unlock()

	const readers = 4
	type obs struct {
		epoch int64
		rows  *storage.Relation
	}
	var mu sync.Mutex
	var seen []obs
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sr.Query(sql)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen = append(seen, obs{res.Epoch, res.Rows})
				mu.Unlock()
			}
		}()
	}
	for cycle := 0; cycle < 3; cycle++ {
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, int64(100+cycle))
		if err := sr.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	// The refresh cycles can outrun the readers (the batch engine makes
	// them fast), and answers racing an install fall back to the
	// coordinator; keep serving until at least one scattered answer lands
	// so the per-epoch and scatter checks below are never vacuous.
	for deadline := time.Now().Add(10 * time.Second); ; {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if (n > 0 && sr.Stats().Scattered > 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if root == nil {
		s.mu.Lock()
		root = s.latest().roots[sql]
		s.mu.Unlock()
	}
	sd := rt.serverIfEnabled().latest().dag
	checked := map[int64]*storage.Relation{}
	for _, o := range seen {
		want := checked[o.epoch]
		if want == nil {
			snap := rt.Snapshots().At(o.epoch)
			if snap == nil {
				t.Fatalf("answer claims unretained epoch %d", o.epoch)
			}
			want = recomputeAt(sd, root, snap)
			checked[o.epoch] = want
		}
		if !storage.EqualMultiset(o.rows, want) {
			t.Fatalf("answer at epoch %d does not match that epoch's recomputation (%d vs %d rows)",
				o.epoch, o.rows.Len(), want.Len())
		}
	}
	if sr.Stats().Scattered == 0 {
		t.Fatal("no concurrent query went through scatter-gather")
	}
}

// TestShardedInstallRetryAfterFailure: a failed stage (one shard down) must
// leave the gate untouched, and a retried install after the shard rejoins
// must converge — the superset-diff retry contract of the two-phase install.
func TestShardedInstallRetryAfterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	rt := buildServingRuntime(t, 0.002, 5)
	cat := rt.Plan.System.Cat
	dirs := []string{t.TempDir(), t.TempDir()}
	asg := shard.Assignment{Partitions: 4, Shards: 2}

	workers := make([]*shard.Worker, 2)
	clients := make([]shard.Client, 2)
	for i := range workers {
		w, err := shard.NewWorker(i, asg, dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		clients[i] = shard.InProc{W: w}
	}
	sr, err := rt.EnableShardedClients(asg, clients, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gate0 := sr.Coordinator().Gate()

	// Take shard 1 down (a closed worker's stage log writes fail), refresh,
	// and watch the install fail without moving the gate.
	workers[1].Close()
	tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, 99)
	rt.Refresh()
	if err := sr.Install(); err == nil {
		t.Fatal("install succeeded with a dead shard")
	}
	if got := sr.Coordinator().Gate(); got != gate0 {
		t.Fatalf("failed install moved the gate: %d -> %d", gate0, got)
	}

	// Restart the worker from its stage log, swap the client in, rejoin, and
	// retry: the gate must reach the current epoch.
	w1, err := shard.NewWorker(1, asg, dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	sr.Coordinator().ReplaceClient(1, shard.InProc{W: w1})
	if err := sr.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	if err := sr.Install(); err != nil {
		t.Fatalf("retried install: %v", err)
	}
	if gate, cur := sr.Coordinator().Gate(), rt.Snapshots().Current().Epoch(); gate != cur {
		t.Fatalf("gate %d after retry, want %d", gate, cur)
	}
	res, err := sr.Query(serveQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	single, err := rt.Query(serveQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != single.Epoch {
		t.Fatalf("epochs diverge after retry: %d vs %d", res.Epoch, single.Epoch)
	}
	for r, tu := range single.Rows.Rows() {
		if !tu.Equal(res.Rows.Rows()[r]) {
			t.Fatalf("row %d differs after recovery retry", r)
		}
	}
	sr.Close()
}

// TestShardedReadersAcrossAdaptInstall: a sharded runtime adapts while a
// reader queries at the gate, one fleet install behind each swap. No query
// fails, and every answer equals the recomputation at its epoch.
func TestShardedReadersAcrossAdaptInstall(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	cat := rt.Plan.System.Cat
	sr, err := rt.EnableShardedInProc(ShardOptions{Shards: 2, Partitions: 8, RetainHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := rt.EnableAdapt(AdaptOptions{EveryCycles: 1, Sync: true}); err != nil {
		t.Fatal(err)
	}
	type obs struct {
		epoch int64
		rows  *storage.Relation
	}
	var seen []obs
	var errs []error
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if res, err := sr.Query(hotDriftQuery); err != nil {
				errs = append(errs, err)
			} else {
				seen = append(seen, obs{res.Epoch, res.Rows})
			}
		}
	}()
	for i := 0; i < 6; i++ {
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 4, int64(960+i))
		if err := sr.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
	if len(errs) > 0 {
		t.Fatalf("%d of %d queries failed, first: %v", len(errs), len(errs)+len(seen), errs[0])
	}
	if st := rt.AdaptStats(); st.Installs == 0 {
		t.Fatalf("no swap installed: %+v", st)
	}
	cd := dag.New(cat)
	root := cd.InsertExpr(viewdef.MustParse(cat, hotDriftQuery))
	want := map[int64]*storage.Relation{}
	for _, o := range seen {
		if want[o.epoch] == nil {
			want[o.epoch] = recomputeAt(cd, root, rt.Snapshots().At(o.epoch))
		}
		if !storage.EqualMultiset(o.rows, want[o.epoch]) {
			t.Fatalf("answer at epoch %d differs from its recomputation", o.epoch)
		}
	}
}

// TestServingGenerationsStayBounded: every install appends a serving
// generation and, once its epoch is out, drops those no retained snapshot
// maps to. A long-lived adapting runtime therefore holds at most three under
// the sharded store's window of four epochs, with a gate reader planning
// throughout, and one when only the current snapshot is kept — where a
// snapshot that outlived its generation is refused, not planned.
func TestServingGenerationsStayBounded(t *testing.T) {
	for _, shards := range []int{2, 0} {
		rt := buildServingRuntime(t, 0.002, 4)
		cat := rt.Plan.System.Cat
		var query func(string) (*QueryResult, error) // the gate reader
		refresh, bound := func() error { rt.Refresh(); return nil }, 1
		if shards > 0 {
			sr, err := rt.EnableShardedInProc(ShardOptions{Shards: shards, Partitions: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			query, refresh, bound = sr.Query, sr.Refresh, 3
		}
		// Observed cardinalities re-price every round, so each one arms a
		// swap even when the chosen set is unchanged: one install per cycle.
		rt.EnableFeedback()
		if err := rt.EnableAdapt(AdaptOptions{EveryCycles: 1, Sync: true, MinDrift: -1, MinImprovement: -1}); err != nil {
			t.Fatal(err)
		}
		first := rt.Snapshots().Current()
		// The reader's answers are checked against recomputations the
		// writer takes of every epoch while the store still retains it. The
		// window keeps a gate epoch for most of a cycle after the gate moves
		// past it, so the reader expects no error, the no-generation one
		// included.
		cd := dag.New(cat)
		root := cd.InsertExpr(viewdef.MustParse(cat, hotDriftQuery))
		want := map[int64]*storage.Relation{}
		oracle := func() {
			for _, snap := range append(rt.Snapshots().History(), rt.Snapshots().Current()) {
				if want[snap.Epoch()] == nil {
					want[snap.Epoch()] = recomputeAt(cd, root, snap)
				}
			}
		}
		oracle()
		var seen []*QueryResult
		var errs []error
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			for query != nil && !stop.Load() {
				if res, err := query(hotDriftQuery); err != nil {
					errs = append(errs, err)
				} else {
					seen = append(seen, res)
				}
			}
		}()
		defer func() { stop.Store(true); <-done }()
		s := rt.serverIfEnabled()
		for i := 0; i < 8; i++ {
			tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 4, int64(970+i))
			if err := refresh(); err != nil {
				t.Fatal(err)
			}
			oracle()
			s.mu.Lock()
			n := len(s.gens)
			s.mu.Unlock()
			if n > bound {
				t.Fatalf("shards=%d: %d serving generations after cycle %d, want at most %d", shards, n, i, bound)
			}
		}
		stop.Store(true)
		<-done
		if st := rt.AdaptStats(); st.Installs < 6 {
			t.Fatalf("shards=%d: %d installs, want at least 6: %+v", shards, st.Installs, st)
		}
		if len(errs) > 0 {
			t.Fatalf("%d of %d gate queries failed, first: %v", len(errs), len(errs)+len(seen), errs[0])
		}
		for _, res := range seen {
			if w := want[res.Epoch]; w == nil || !storage.EqualMultiset(res.Rows, w) {
				t.Fatalf("gate answer at epoch %d differs from its recomputation", res.Epoch)
			}
		}
		if shards == 0 {
			if _, _, _, err := s.plan(hotDriftQuery, first, nil); err == nil || !strings.Contains(err.Error(), "no serving generation retained") {
				t.Fatalf("planning at dropped epoch %d: got %v, want the no-generation error", first.Epoch(), err)
			}
		}
	}
}
