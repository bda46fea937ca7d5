package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/tpcd"
)

// refreshBatch is the paper's scenario: one writer applies a 5 % update batch
// and brings all ten views up to date, in place, with nobody reading.
type refreshBatch struct {
	b      *base
	rt     *core.Runtime
	gen    *updateGen
	start  map[string]int
	cycles int64
	// inplace keeps the traced window's samples for the in-place/COW probe.
	inplace      samples
	rowsPerCycle float64
}

// firstUse is how many cycles set-up runs before the first timed one.
const firstUse = 2

func setupRefreshBatch(c *runCtx, _ string, tr *tracer) (instance, stageTimes, error) {
	cat, db, gen := genData(c.sf(0.01), c.seed)
	t0 := time.Now()
	b, err := newBase(cat, db, 5, tr)
	if err != nil {
		return nil, stageTimes{}, err
	}
	w := &refreshBatch{b: b, rt: b.materialize(tr), start: rowCounts(db)}
	w.gen = newUpdateGen(cat, tpcd.UpdatedRelations(), 5, c.seed)
	// The traced run counts the rows every operator and differential puts out
	// in these cycles: they are the seed's cycles 0 and 1 on the generated
	// state, so the count repeats exactly and a plan change shows in it first.
	var rows atomic.Int64
	if tr != nil {
		w.rt.Ex.Obs = func(_ *dag.Equiv, _, act float64) { rows.Add(int64(act)) }
		w.rt.Mt.ObsDelta = func(_ *dag.Equiv, _ string, _ bool, _, act float64) { rows.Add(int64(act)) }
	}
	for i := 0; i < firstUse; i++ { // first use builds column views and hash columns lazily
		w.cycle(nil)
	}
	w.rt.Ex.Obs, w.rt.Mt.ObsDelta = nil, nil
	w.rowsPerCycle = float64(rows.Load()) / firstUse
	b.st.Generate, b.st.Setup = gen, time.Since(t0)
	return w, b.st, nil
}

// cycle stages one update batch (untimed load generation) and refreshes.
func (w *refreshBatch) cycle(tr *tracer) time.Duration {
	w.cycles++
	id := tr.begin("load.updates", 0, w.cycles)
	logOps(w.b.db, w.gen.next(w.b.db))
	tr.end(id)
	id = tr.begin("core.Refresh", 0, w.cycles)
	t0 := time.Now()
	w.rt.Refresh()
	d := time.Since(t0)
	tr.end(id)
	return d
}

func (w *refreshBatch) window(c *runCtx, d time.Duration, tr *tracer) phase {
	var p phase
	for end := time.Now().Add(d); time.Now().Before(end); {
		t := w.cycle(tr)
		p.op.add(t)
		p.busy += t
		c.attempted++
	}
	p.refresh = p.op
	if tr != nil {
		w.inplace = p.op
	}
	return p
}

func (w *refreshBatch) check(c *runCtx) {
	checkViews(c, w.rt)
	checkStationary(c, w.start, rowCounts(w.b.db))
}

// probes: the same refresh with serving on and no reader (copy-on-write merges plus sixteen publishes per cycle), then the
// executor and storage probes on the final state.
func (w *refreshBatch) probes(c *runCtx, d time.Duration, tr *tracer) {
	c.layer["exec.rows_per_cycle"] = w.rowsPerCycle

	w.rt.EnableServing(core.ServeOptions{})
	var cow samples
	for end := time.Now().Add(d / 2); time.Now().Before(end) || len(cow) < 8; {
		cow.add(w.cycle(tr))
	}
	c.layer["core.refresh_inplace_ms_p50"] = quantile(w.inplace.ms(), 0.5)
	c.layer["core.refresh_cow_ms_p50"] = quantile(cow.ms(), 0.5)
	c.layer["storage.cow_publish_ms_per_cycle"] = c.layer["core.refresh_cow_ms_p50"] - c.layer["core.refresh_inplace_ms_p50"]

	snap := w.rt.Snapshots().Current()
	probeSetup(c, w.b, tr)
	probeExec(c, w.b, snap.Database(), tr)
	probeStorage(c, w.b, snap, w.gen, tr)
}

func (w *refreshBatch) close() {}

// checkViews is Runtime.Verify: every view against recomputation from base
// tables. It counts one attempted operation per view.
func checkViews(c *runCtx, rt *core.Runtime) {
	c.attempted += int64(len(rt.Plan.Views))
	if err := rt.Verify(); err != nil {
		c.fail(1, "verify: %v", err)
	}
}

// checkStationary fails the run if any relation's size moved more than 1 %
// over the window: the percentiles would then measure drift.
func checkStationary(c *runCtx, start, end map[string]int) {
	for name, n0 := range start {
		c.attempted++
		if n0 > 0 && math.Abs(float64(end[name]-n0)) > 0.01*float64(n0) {
			c.fail(1, "relation %s drifted from %d to %d rows", name, n0, end[name])
		}
	}
}
