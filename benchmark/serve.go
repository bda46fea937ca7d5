package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// serving drives the three query workloads: closed-loop readers asking SQL
// through Runtime.Query (or ShardedRuntime.Query), optionally beside one
// writer that refreshes on a schedule.
type serving struct {
	b  *base
	rt *core.Runtime
	sr *core.ShardedRuntime // shard_serve only
	// stageDirs are the fleet's stage-log directories.
	stageDirs []string
	gen       *updateGen
	start     map[string]int

	// mixes holds one text source per reader; they persist across windows so
	// a reader never repeats a "novel" literal.
	mixes []func() string
	// every is the writer's period (0: no writer).
	every time.Duration
	// budget is the result-cache budget the runtime serves with.
	budget float64

	opSeq atomic.Int64
	// pending is the update batch generated for the writer's next cycle.
	pending []ingest.Op

	mu sync.Mutex
	// texts are the distinct texts answered so far, at most maxChecked of
	// them (a recomputation from base tables each), re-asked by check.
	texts      map[string]bool
	maxChecked int
	rep        *replica
	agg        stagedAgg
}

// stagedAgg collects the traced window's staged replays.
type stagedAgg struct {
	parse, insert, plan, best, run, lower, scatter, glue samples
	planShare                                            []float64
	mismatched                                           int64
}

func (w *serving) query(sql string) (*core.QueryResult, error) {
	if w.sr != nil {
		return w.sr.Query(sql)
	}
	return w.rt.Query(sql)
}

// setupServing builds a serving runtime over the ten views and asks every
// warm text once, so lazily built column views are paid in set-up.
func setupServing(c *runCtx, sf float64, tr *tracer, enable func(*core.Runtime) (*core.ShardedRuntime, error), warm []string, writer bool) (*serving, stageTimes, error) {
	cat, db, gen := genData(c.sf(sf), c.seed)
	t0 := time.Now()
	b, err := newBase(cat, db, 5, tr)
	if err != nil {
		return nil, stageTimes{}, err
	}
	w := &serving{b: b, rt: b.materialize(tr), start: rowCounts(db), texts: map[string]bool{}}
	w.gen = newUpdateGen(cat, tpcd.UpdatedRelations(), 5, c.seed)
	id := tr.begin("core.enable", 0, 0)
	t1 := time.Now()
	w.sr, err = enable(w.rt)
	b.st.Enable = time.Since(t1)
	tr.end(id)
	if err != nil {
		return nil, stageTimes{}, err
	}
	for _, sql := range warm {
		if _, err := w.query(sql); err != nil {
			return nil, stageTimes{}, fmt.Errorf("warm-up query: %w", err)
		}
	}
	if writer {
		w.pending = w.gen.next(w.rt.Ex.DB)
		if _, _, err := w.cycle(time.Now(), nil, 0); err != nil {
			return nil, stageTimes{}, err
		}
	}
	b.st.Generate, b.st.Setup = gen, time.Since(t0)
	return w, b.st, nil
}

func setupServePlan(c *runCtx, _ string, tr *tracer) (instance, stageTimes, error) {
	w, st, err := setupServing(c, 0.005, tr, func(rt *core.Runtime) (*core.ShardedRuntime, error) {
		rt.EnableServing(core.ServeOptions{})
		return nil, nil
	}, hotQueries, false)
	if err != nil {
		return nil, st, err
	}
	w.budget = 64 << 20
	w.maxChecked = 400
	for r := 0; r < 2; r++ {
		w.mixes = append(w.mixes, newPlanMix(c.seed, r).next)
	}
	return w, st, nil
}

func setupServeRefresh(c *runCtx, _ string, tr *tracer) (instance, stageTimes, error) {
	w, st, err := setupServing(c, 0.01, tr, func(rt *core.Runtime) (*core.ShardedRuntime, error) {
		rt.EnableServing(core.ServeOptions{})
		return nil, nil
	}, warmTexts(execTemplates), true)
	if err != nil {
		return nil, st, err
	}
	w.budget = 64 << 20
	w.every = 150 * time.Millisecond
	w.maxChecked = 64
	w.mixes = []func() string{execMix(execTemplates, c.seed)}
	return w, st, nil
}

func setupShardServe(c *runCtx, dir string, tr *tracer) (instance, stageTimes, error) {
	dirs := []string{filepath.Join(dir, "s0"), filepath.Join(dir, "s1")}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, stageTimes{}, err
		}
	}
	w, st, err := setupServing(c, 0.01, tr, func(rt *core.Runtime) (*core.ShardedRuntime, error) {
		return rt.EnableShardedInProc(core.ShardOptions{Shards: 2, Partitions: 4, Dirs: dirs})
	}, warmTexts(scatterTemplates), true)
	if err != nil {
		return nil, st, err
	}
	w.stageDirs = dirs
	w.every = 500 * time.Millisecond
	w.maxChecked = 64
	w.mixes = []func() string{execMix(scatterTemplates, c.seed)}
	return w, st, nil
}

// cycle is one writer cycle due at `due`: stage the batch generated ahead of
// time, refresh, install on the fleet when there is one, and generate the
// next batch in the idle gap that follows.
func (w *serving) cycle(due time.Time, tr *tracer, op int64) (refresh, install time.Duration, err error) {
	logOps(w.rt.Ex.DB, w.pending)
	id := tr.begin("core.Refresh", 0, op)
	w.rt.Refresh()
	tr.end(id)
	refresh = time.Since(due)
	if w.sr != nil {
		id = tr.begin("shard.Install", 0, op)
		t0 := time.Now()
		err = w.sr.Install()
		install = time.Since(t0)
		tr.end(id)
	}
	id = tr.begin("load.updates", 0, op)
	w.pending = w.gen.next(w.rt.Ex.DB)
	tr.end(id)
	return refresh, install, err
}

func (w *serving) window(c *runCtx, d time.Duration, tr *tracer) phase {
	if tr != nil && w.rep == nil {
		w.rep = newReplica(w.b.plan, w.rt.Ex.Par, w.budget)
	}
	start := time.Now()
	end := start.Add(d)
	var (
		p      phase
		wg     sync.WaitGroup
		failed atomic.Int64
		total  atomic.Int64
	)
	per := make([]samples, len(w.mixes))
	for r := range w.mixes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			per[r] = w.read(r, end, tr, &total, &failed)
		}(r)
	}
	if w.every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * w.every)
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				p.lag.add(time.Since(due))
				refresh, install, err := w.cycle(due, tr, w.opSeq.Add(1))
				total.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				p.refresh.add(refresh)
				if w.sr != nil {
					p.install.add(install)
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range per {
		p.op = append(p.op, s...)
	}
	p.busy = time.Since(start)
	c.attempted += total.Load()
	if n := failed.Load(); n > 0 {
		c.fail(n, "%d queries or installs failed in the window", n)
	}
	return p
}

// read is one closed-loop reader.
func (w *serving) read(r int, end time.Time, tr *tracer, total, failed *atomic.Int64) samples {
	var (
		out   samples
		texts []string
	)
	next := w.mixes[r]
	for time.Now().Before(end) {
		sql := next()
		op := w.opSeq.Add(1)
		id := tr.begin("core.Query", 0, op)
		t0 := time.Now()
		res, err := w.query(sql)
		d := time.Since(t0)
		tr.end(id)
		total.Add(1)
		if err != nil {
			failed.Add(1)
			continue
		}
		out.add(d)
		if len(texts) < w.maxChecked {
			texts = append(texts, sql)
		}
		if tr != nil {
			w.replay(sql, res, d, tr, op)
		}
	}
	w.mu.Lock()
	for _, t := range texts {
		if len(w.texts) < w.maxChecked {
			w.texts[t] = true
		}
	}
	w.mu.Unlock()
	return out
}

// replay walks the query the runtime just answered through the staged
// replica and checks that both produced the same rows.
func (w *serving) replay(sql string, res *core.QueryResult, d time.Duration, tr *tracer, op int64) {
	var snap *storage.Snapshot
	if w.sr != nil {
		snap = w.rt.Snapshots().At(res.Epoch)
	} else if cur := w.rt.Snapshots().Current(); cur.Epoch() == res.Epoch {
		snap = cur
	}
	if snap == nil {
		return // the writer published past the query's epoch: nothing to compare on
	}
	var co *shard.Coordinator
	if w.sr != nil {
		co = w.sr.Coordinator()
	}
	rows, st, err := w.rep.query(sql, snap, co, tr, op)
	w.mu.Lock()
	defer w.mu.Unlock()
	agg := &w.agg
	if err != nil || !sameRows(rows, res.Rows, op%16 == 0) {
		agg.mismatched++
		return
	}
	if !st.memoHit {
		agg.parse.add(st.parse)
		agg.insert.add(st.insert)
	}
	agg.plan.add(st.plan)
	agg.best.add(st.best)
	if st.scattered {
		agg.lower.add(st.lower)
		agg.scatter.add(st.scatter)
	} else { // under sharding: the coordinator-local fallbacks only
		agg.run.add(st.run)
	}
	agg.glue.add(d - st.total())
	if t := st.total(); t > 0 {
		agg.planShare = append(agg.planShare, float64(st.parse+st.insert+st.plan)/float64(t))
	}
}

// sameRows compares two answers: by length always and, when deep, as
// multisets. Row order is not compared: it depends on whether a plan reused
// a cached result, and the replica's cache has seen only the traced queries.
func sameRows(a, b *storage.Relation, deep bool) bool {
	if a == nil || b == nil || a.Len() != b.Len() {
		return false
	}
	return !deep || storage.EqualMultiset(a, b)
}

// check verifies every view, that the database stayed the same size, and
// every distinct text: re-asked at the final epoch, its rows must equal a
// recomputation from base tables on a fresh DAG, and through the fleet also
// local execution (as multisets).
func (w *serving) check(c *runCtx) {
	checkViews(c, w.rt)
	checkStationary(c, w.start, rowCounts(w.rt.Ex.DB))
	fresh := dag.New(w.b.cat)
	for sql := range w.texts {
		c.attempted++
		res, err := w.query(sql)
		if err != nil {
			c.fail(1, "re-ask %q: %v", sql, err)
			continue
		}
		snap := w.rt.Snapshots().Current()
		if w.sr != nil {
			snap = w.rt.Snapshots().At(res.Epoch)
		}
		want := exec.NewExecutor(snap.Database()).EvalNode(fresh.InsertExpr(viewdef.MustParse(w.b.cat, sql)))
		if !storage.EqualMultiset(res.Rows, want) {
			c.fail(1, "answer to %q differs from recomputation (%d rows, want %d)", sql, res.Rows.Len(), want.Len())
			continue
		}
		if w.sr != nil {
			if local, err := w.rt.Query(sql); err != nil || !sameRows(res.Rows, local.Rows, true) {
				c.fail(1, "fleet answer to %q differs from local execution", sql)
			}
		}
	}
	if n := w.agg.mismatched; n > 0 {
		c.fail(n, "%d staged replays differed from Runtime.Query", n)
	}
}

func (w *serving) probes(c *runCtx, _ time.Duration, tr *tracer) {
	l, a := c.layer, &w.agg
	p50 := func(s samples) float64 { return 1000 * quantile(s.ms(), 0.5) }
	l["viewdef.parse_us_p50"] = p50(a.parse)
	l["dag.insert_us_p50"] = p50(a.insert)
	l["volcano.best_us_p50"] = p50(a.best)
	l["cache.execute_root_us_p50"] = p50(a.plan)
	l["exec.run_us_p50"] = p50(a.run)
	l["core.query_glue_us_p50"] = p50(a.glue)
	l["core.plan_share"] = medianOf(a.planShare)
	l["shard.lower_us_p50"] = p50(a.lower)
	l["shard.scatter_us_p50"] = p50(a.scatter)
	l["dag.equivs_end"] = float64(len(w.rep.dag.Equivs))
	st := w.rt.ServeStats()
	if st.Queries > 0 {
		l["cache.hit_ratio"] = float64(st.CacheHits) / float64(st.Queries)
	}
	l["cache.refills"] = float64(st.Refills)

	snap := w.rt.Snapshots().Current()
	probeSetup(c, w.b, tr)
	if w.every > 0 { // execution and copy-on-write matter where a writer runs
		probeExec(c, w.b, snap.Database(), tr)
		probeStorage(c, w.b, snap, w.gen, tr)
	}
	if w.sr != nil {
		s := w.sr.Stats()
		if n := s.Scattered + s.Fallbacks; n > 0 {
			l["shard.scattered_ratio"] = float64(s.Scattered) / float64(n)
		}
		probeShard(c, w, tr)
	}
}

func (w *serving) close() {
	if w.sr != nil {
		w.sr.Close()
	}
}
