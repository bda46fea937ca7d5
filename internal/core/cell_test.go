package core

// Write-once cache cells: an admitted entry is computed at most once per
// epoch however many readers ask for it together, no cell serves an epoch
// other than its own across refreshes and adaptation installs, and a live
// result cache rules out sharding.

import (
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/exec/equivtest"
	"repro/internal/storage"
	"repro/internal/viewdef"
)

// oracleAt answers sql with the row oracle over the base relations of a
// retained epoch.
func oracleAt(t *testing.T, rt *Runtime, sql string, epoch int64) *storage.Relation {
	t.Helper()
	snap := rt.Snapshots().At(epoch)
	if snap == nil {
		t.Fatalf("epoch %d is not retained", epoch)
	}
	cat := rt.Plan.System.Cat
	return equivtest.Eval(snap.Database(), dag.New(cat).InsertExpr(viewdef.MustParse(cat, sql)))
}

// TestCacheEntryFillsOncePerEpoch releases eight readers of one cached text
// together after a refresh: one of them fills the entry's cell for the new
// epoch, the other seven find it and share its rows, and every answer equals
// the oracle at its epoch. A cell left without rows — what a panicking fill
// leaves, since sync.Once never reruns it — fails the query instead of
// handing the executor a nil leaf.
func TestCacheEntryFillsOncePerEpoch(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 5)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	sql := serveQueries[2] // supplier aggregate: nothing materialized covers it
	// The first query admits the entry, the second fills its first cell.
	for i := 0; i < 2; i++ {
		if _, err := rt.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	before := rt.ServeStats()
	if before.Refills != 1 {
		t.Fatalf("admitting and reusing the entry took %d refills, want 1", before.Refills)
	}
	cycle(rt, 380)

	const readers = 8
	var (
		ready, done sync.WaitGroup
		release     = make(chan struct{})
		results     [readers]*QueryResult
		errs        [readers]error
	)
	for i := 0; i < readers; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ready.Done()
			<-release
			results[i], errs[i] = rt.Query(sql)
		}(i)
	}
	ready.Wait()
	close(release)
	done.Wait()

	after := rt.ServeStats()
	if n := after.Refills - before.Refills; n != 1 {
		t.Errorf("%d readers at one epoch filled the entry %d times, want once", readers, n)
	}
	if n := after.CacheHits - before.CacheHits; n != readers-1 {
		t.Errorf("%d readers found the epoch's cell, want %d", n, readers-1)
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !storage.EqualMultiset(res.Rows, oracleAt(t, rt, sql, res.Epoch)) {
			t.Errorf("reader %d: answer differs from the oracle at epoch %d", i, res.Epoch)
		}
	}

	cycle(rt, 381)
	s := rt.server()
	s.mu.Lock()
	for id, c := range s.latest().cells {
		empty := &cell{epoch: rt.Snapshots().Current().Epoch(), plan: c.plan, ex: c.ex}
		empty.Publish(func() *storage.Relation { return nil })
		s.latest().cells[id] = empty
	}
	s.mu.Unlock()
	if _, err := rt.Query(sql); err == nil {
		t.Error("a query over a cell without rows must fail")
	}
}

// TestCacheEntriesFollowEpochs asks one cached text across the events that
// publish an epoch — a refresh batch and an adaptation install — and holds
// every answer to the oracle at its epoch. A refresh starts a new cell at
// the next reuse; an install drops every cell (the swap re-keys entries
// and may store what a cell held).
func TestCacheEntriesFollowEpochs(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	sql := serveQueries[2]
	ask := func(stage string, refills int64, hit bool) {
		t.Helper()
		res, err := rt.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := rt.ServeStats().Refills; got != refills || res.CacheHit != hit {
			t.Errorf("%s: %d refills, cache hit %v; want %d, %v", stage, got, res.CacheHit, refills, hit)
		}
		if cur := rt.Snapshots().Current().Epoch(); res.Epoch != cur {
			t.Errorf("%s: answered at epoch %d, current is %d", stage, res.Epoch, cur)
		}
		if !storage.EqualMultiset(res.Rows, oracleAt(t, rt, sql, res.Epoch)) {
			t.Errorf("%s: answer differs from the oracle at epoch %d", stage, res.Epoch)
		}
	}
	ask("admission", 0, false)
	ask("first reuse", 1, false)
	ask("same epoch", 1, true)
	cycle(rt, 390)
	ask("after a refresh", 2, false)
	ask("after a refresh, again", 2, true)

	// Force an install as TestAdaptSwapsToObservedWorkload does: a dominating
	// query nothing stores arms a swap.
	for i := 0; i < 50; i++ {
		if _, err := rt.Query(hotDriftQuery); err != nil {
			t.Fatal(err)
		}
	}
	cycle(rt, 391)
	res, err := rt.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed {
		t.Fatal("setup needs an armed swap")
	}
	if !rt.InstallPending() {
		t.Fatal("the armed swap did not install")
	}
	s := rt.serverIfEnabled()
	s.mu.Lock()
	for i, g := range s.gens {
		if len(g.cells) != 0 {
			t.Errorf("generation %d of %d kept %d cells across the install", i, len(s.gens), len(g.cells))
		}
	}
	s.mu.Unlock()
	// The swap materialized the text itself (it was part of the observed
	// workload), so its answers now come from the maintained result, not
	// from a cell.
	refills := rt.ServeStats().Refills
	ask("after an install", refills, false)
	ask("after an install, again", refills, false)
}

// TestShardingRejectsLiveResultCache: a runtime already serving with the
// result cache on cannot be sharded — its cells follow the current epoch,
// not the gate — and keeps serving locally after the refusal, while one
// serving with the cache off shards as before.
func TestShardingRejectsLiveResultCache(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 5)
	rt.EnableServing(ServeOptions{})
	if sr, err := rt.EnableShardedInProc(ShardOptions{Shards: 2}); err == nil {
		sr.Close()
		t.Fatal("sharding accepted a runtime serving with a live result cache")
	}
	for _, sql := range serveQueries {
		if _, err := rt.Query(sql); err != nil {
			t.Fatalf("local serving after the refusal: %v", err)
		}
	}

	off := buildServingRuntime(t, 0.002, 5)
	off.EnableServing(ServeOptions{CacheBudget: -1})
	sr, err := off.EnableShardedInProc(ShardOptions{Shards: 2})
	if err != nil {
		t.Fatalf("sharding a runtime serving without a cache: %v", err)
	}
	defer sr.Close()
	if _, err := sr.Query(serveQueries[0]); err != nil {
		t.Fatal(err)
	}
}
