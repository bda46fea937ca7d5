package core

// Golden shard-equivalence: the same workload refreshed and queried through
// sharded scatter-gather at shards ∈ {1, 2, 4} must answer every
// non-aggregate query byte-identically to single-node serving (aggregates:
// multiset-equal; their group order is map order even sequentially). Runs
// under -race in CI, so the coordinator/worker paths under concurrent
// queries are exercised for races too. Mirrors
// TestServePartitionCountIndependence one level up the distribution stack.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tpcd"
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
	root := s.roots[sql]
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
		root = s.roots[sql]
		s.mu.Unlock()
	}
	sd := rt.serverIfEnabled().dag
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

// TestShardedAdaptRefused: sharded readers plan at the gate epoch, which
// lags an adaptation swap by a fleet install, so the two features refuse
// each other at enable time — in both orders — and a sharded runtime keeps
// its materialized set.
func TestShardedAdaptRefused(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	sr, err := rt.EnableShardedInProc(ShardOptions{Shards: 2, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := rt.EnableAdapt(AdaptOptions{EveryCycles: 1, Sync: true}); !errors.Is(err, errAdaptSharded) {
		t.Fatalf("EnableAdapt on a sharded runtime: %v, want errAdaptSharded", err)
	}
	if _, err := rt.Adapt(); !errors.Is(err, errAdaptSharded) {
		t.Fatalf("Adapt on a sharded runtime: %v, want errAdaptSharded", err)
	}
	// The automatic round goes through the same guard: arm it behind
	// EnableAdapt's back and refresh.
	rt.adaptMu.Lock()
	rt.adaptOpts = &AdaptOptions{EveryCycles: 1, Sync: true}
	rt.adaptMu.Unlock()
	tpcd.LogUniformUpdates(rt.Plan.System.Cat, rt.Ex.DB, updatedRels, 4, 300)
	if err := sr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := rt.AdaptStats(); st.LastError != errAdaptSharded.Error() || st.Armed != 0 {
		t.Fatalf("auto round on a sharded runtime: %+v", st)
	}
	if _, err := sr.Query(serveQueries[0]); err != nil {
		t.Fatal(err)
	}

	ad := buildServingRuntime(t, 0.002, 4)
	ad.EnableServing(ServeOptions{CacheBudget: -1})
	if err := ad.EnableAdapt(AdaptOptions{EveryCycles: 1, Sync: true}); err != nil {
		t.Fatal(err)
	}
	if sr, err := ad.EnableShardedInProc(ShardOptions{Shards: 2, Partitions: 8}); !errors.Is(err, errAdaptSharded) {
		if sr != nil {
			sr.Close()
		}
		t.Fatalf("EnableShardedInProc on an adapting runtime: %v, want errAdaptSharded", err)
	}
	if _, err := ad.Query(serveQueries[0]); err != nil {
		t.Fatalf("local serving after the refusal: %v", err)
	}

	// A sharding call that fails after its checks leaves the runtime
	// unsharded, so it may still adapt. One client for two shards:
	// NewCoordinator refuses.
	un := buildServingRuntime(t, 0.002, 4)
	asg := shard.Assignment{Partitions: 8, Shards: 2}.Norm()
	w, err := shard.NewWorker(0, asg, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := un.EnableShardedClients(asg, []shard.Client{shard.InProc{W: w}}, ShardOptions{}); err == nil {
		t.Fatal("EnableShardedClients accepted one client for two shards")
	}
	if err := un.EnableAdapt(AdaptOptions{EveryCycles: 1, Sync: true}); err != nil {
		t.Fatalf("EnableAdapt after a failed EnableShardedClients: %v", err)
	}
}

// TestShardedAdaptRaceHasOneWinner: a manual Adapt round that overlaps
// EnableShardedInProc must not arm a swap on a runtime that became sharded
// while the round was building. Exactly one of the two succeeds.
func TestShardedAdaptRaceHasOneWinner(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{CacheBudget: -1})
	for i := 0; i < 30; i++ {
		if _, err := rt.Query(hotDriftQuery); err != nil {
			t.Fatal(err)
		}
	}
	cycle(rt, 910)

	var (
		wg     sync.WaitGroup
		res    *AdaptResult
		adaErr error
		sr     *ShardedRuntime
		shErr  error
	)
	// Shard a moment into the round, after its entry guard and before it
	// arms: the window the arm-time check closes. Any interleaving must
	// still leave exactly one winner.
	started := make(chan struct{})
	wg.Add(2)
	go func() { defer wg.Done(); close(started); res, adaErr = rt.Adapt() }()
	go func() {
		defer wg.Done()
		<-started
		time.Sleep(time.Millisecond)
		sr, shErr = rt.EnableShardedInProc(ShardOptions{Shards: 2, Partitions: 8})
	}()
	wg.Wait()
	if sr != nil {
		defer sr.Close()
	}
	armed := adaErr == nil && res.Changed
	switch {
	case shErr == nil && armed:
		t.Fatal("a swap was armed on a sharded runtime")
	case shErr == nil:
		if !errors.Is(adaErr, errAdaptSharded) || rt.pending.Load() != nil {
			t.Fatalf("sharding won, but Adapt returned %v (pending %v)", adaErr, rt.pending.Load() != nil)
		}
	case !errors.Is(shErr, errAdaptSharded) || !armed:
		t.Fatalf("neither won: EnableShardedInProc %v, Adapt %v", shErr, adaErr)
	}
}
