package core

// Golden shard-equivalence: the same workload refreshed and queried through
// sharded scatter-gather at shards ∈ {1, 2, 4} must answer every
// non-aggregate query byte-identically to single-node serving (aggregates:
// multiset-equal; their group order is map order even sequentially). Runs
// under -race in CI, so the coordinator/worker paths under concurrent
// queries are exercised for races too.

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dag"
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

	sql := serveQueries[3] // one filter stage over a base table: it scatters
	s := rt.server()
	s.mu.Lock()
	root := s.fe.roots[sql]
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
		root = s.fe.roots[sql]
		s.mu.Unlock()
	}
	sd := rt.serverIfEnabled().fe.dag
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
	if err := rt.Verify(); err != nil {
		t.Fatalf("views diverged from recomputation after the run: %v", err)
	}
}

// TestShardedBareLeafAnswersLocally: a query that is exactly a stored view
// lowers to no stage, so the gate snapshot answers it without a scatter. It
// counts as a fallback and equals single-node serving byte for byte, while a
// query with a filter stage still scatters.
func TestShardedBareLeafAnswersLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	rt := buildServingRuntime(t, 0.002, 5)
	cat := rt.Plan.System.Cat
	sr, err := rt.EnableShardedInProc(ShardOptions{Shards: 2, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, 99)
	if err := sr.Refresh(); err != nil {
		t.Fatal(err)
	}

	before := sr.Stats()
	res, err := sr.Query(serveQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	after := sr.Stats()
	if after.Scattered != before.Scattered || after.Fallbacks != before.Fallbacks+1 {
		t.Fatalf("bare view read: scattered %d -> %d, fallbacks %d -> %d; want it answered locally",
			before.Scattered, after.Scattered, before.Fallbacks, after.Fallbacks)
	}
	single, err := rt.Query(serveQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != single.Epoch {
		t.Fatalf("epochs diverge: sharded %d, single-node %d", res.Epoch, single.Epoch)
	}
	want, got := single.Rows.Rows(), res.Rows.Rows()
	if len(got) != len(want) {
		t.Fatalf("sharded answer has %d rows, single-node %d", len(got), len(want))
	}
	for r, tu := range want {
		if !tu.Equal(got[r]) {
			t.Fatalf("row %d differs from single-node serving", r)
		}
	}

	if _, err := sr.Query(serveQueries[3]); err != nil {
		t.Fatal(err)
	}
	if sr.Stats().Scattered != after.Scattered+1 {
		t.Fatal("a filtered base-table read did not scatter")
	}
}

// TestShardedEnableFailureClosesOpenedWorkers: when the second worker
// cannot open its stage log, EnableShardedInProc fails and the first
// worker's log, already open, is closed again: no descriptor of this process
// still points at it.
func TestShardedEnableFailureClosesOpenedWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list open descriptors")
	}
	rt := buildServingRuntime(t, 0.002, 5)
	good := t.TempDir()
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.EnableShardedInProc(ShardOptions{Shards: 2, Dirs: []string{good, bad}}); err == nil {
		t.Fatal("a shard directory that is a regular file was accepted")
	}
	log := filepath.Join(good, "stage.log")
	if _, err := os.Stat(log); err != nil {
		t.Fatalf("the first worker never opened its stage log: %v", err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == log {
			t.Fatalf("descriptor %s still holds the first worker's stage log open", fd.Name())
		}
	}
}

// offPlanQuery shares nothing with the ViewSet5 maintenance plan, so the
// gate answers it from base relations at every epoch.
const offPlanQuery = `
	SELECT supplier.s_nationkey, SUM(partsupp.ps_supplycost) AS cost, COUNT(*)
	FROM partsupp, supplier
	WHERE partsupp.ps_suppkey = supplier.s_suppkey
	GROUP BY supplier.s_nationkey`

// TestShardedReadersAcrossAdaptInstall: a sharded runtime refreshes while a
// reader queries at the gate, one fleet install behind each refresh. No
// query fails, and every answer equals the recomputation at its epoch. (The
// name dates from when an install could also swap the materialized set; the
// fleet install it crosses is unchanged.)
func TestShardedReadersAcrossAdaptInstall(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	cat := rt.Plan.System.Cat
	sr, err := rt.EnableShardedInProc(ShardOptions{Shards: 2, Partitions: 8, RetainHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
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
			if res, err := sr.Query(offPlanQuery); err != nil {
				errs = append(errs, err)
			} else {
				seen = append(seen, obs{res.Epoch, res.Rows})
			}
		}
	}()
	defer func() { stop.Store(true); <-done }()
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
	if len(seen) == 0 {
		t.Fatal("the gate reader answered no query")
	}
	cd := dag.New(cat)
	root := cd.InsertExpr(viewdef.MustParse(cat, offPlanQuery))
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

// TestServingGenerationsStayBounded: a long-lived runtime retains a bounded
// number of snapshots and plans with its one front end throughout. Under
// the sharded store's window of four epochs a gate reader queries while the
// writer runs Refresh + Install cycles; the window keeps a gate epoch for
// most of a cycle after the gate moves past it, so no query fails, and every
// answer equals the recomputation the writer took of its epoch while the
// store still retained it. When only the current snapshot is kept, no
// history is retained at all.
func TestServingGenerationsStayBounded(t *testing.T) {
	for _, shards := range []int{2, 0} {
		rt := buildServingRuntime(t, 0.002, 4)
		cat := rt.Plan.System.Cat
		var query func(string) (*QueryResult, error) // the gate reader
		install, bound := func() error { return nil }, 0
		if shards > 0 {
			sr, err := rt.EnableShardedInProc(ShardOptions{Shards: shards, Partitions: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			query, install, bound = sr.Query, sr.Install, 4
		}
		rt.EnableServing(ServeOptions{})
		s := rt.serverIfEnabled()
		s.mu.Lock()
		fe := s.fe
		s.mu.Unlock()

		cd := dag.New(cat)
		root := cd.InsertExpr(viewdef.MustParse(cat, offPlanQuery))
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
				if res, err := query(offPlanQuery); err != nil {
					errs = append(errs, err)
				} else {
					seen = append(seen, res)
				}
			}
		}()
		defer func() { stop.Store(true); <-done }()
		for i := 0; i < 8; i++ {
			tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 4, int64(970+i))
			rt.Refresh()
			if err := install(); err != nil {
				t.Fatal(err)
			}
			oracle()
			if n := len(rt.Snapshots().History()); n > bound {
				t.Fatalf("shards=%d: %d snapshots retained after cycle %d, want at most %d", shards, n, i, bound)
			}
			s.mu.Lock()
			same := s.fe == fe
			s.mu.Unlock()
			if !same {
				t.Fatalf("shards=%d: the server changed front end in cycle %d", shards, i)
			}
		}
		stop.Store(true)
		<-done
		if len(errs) > 0 {
			t.Fatalf("shards=%d: %d of %d gate queries failed, first: %v", shards, len(errs), len(errs)+len(seen), errs[0])
		}
		if query != nil && len(seen) == 0 {
			t.Fatalf("shards=%d: the gate reader answered no query", shards)
		}
		for _, res := range seen {
			if w := want[res.Epoch]; w == nil || !storage.EqualMultiset(res.Rows, w) {
				t.Fatalf("shards=%d: gate answer at epoch %d differs from its recomputation", shards, res.Epoch)
			}
		}
	}
}
