package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/feedback"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// AdaptiveServe measures online re-selection under a drifting workload:
// reader goroutines issue a weighted query mix that shifts between phases,
// a fixed number of reads each per refresh cycle, and the writer refreshes
// once they are done; in adaptive mode the runtime re-selects its
// materialized set from the observed workload and hot-swaps it at epoch
// boundaries (core.Runtime.Adapt), in static mode it keeps the selection
// tuned for the initial phase. Comparing the two isolates what adaptation
// buys once traffic leaves the configured workload behind. Because every
// cycle's reads complete before its refresh, the workload tracker sees the
// same per-cycle counts at a given seed, however fast the reads run, and so
// a seed installs the same swaps on every run.

// readsPerCycle is how many queries each reader issues per refresh cycle.
const readsPerCycle = 100

// adaptiveUpdatedRels keeps refresh cycles moderate (12 steps per cycle)
// while still updating every relation the drift queries touch.
func adaptiveUpdatedRels() []string {
	return []string{"supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}

// AdaptiveConfig parameterizes one AdaptiveServe run.
type AdaptiveConfig struct {
	// ScaleFactor is the TPC-D scale of the generated database.
	ScaleFactor float64
	// UpdatePct is the per-cycle update percentage.
	UpdatePct float64
	// Readers is the number of concurrent query goroutines.
	Readers int
	// CyclesPerPhase is how many refresh cycles each phase lasts.
	CyclesPerPhase int
	// Workers bounds the refresh scheduler's pool (0 = GOMAXPROCS).
	Workers int
	// CacheBudget is the serving result-cache size in bytes (0 = default).
	CacheBudget float64
	// Seed drives data generation and the drift generator.
	Seed int64
	// Phases is the drifting workload; nil selects tpcd.DriftServeMix(Seed):
	// view-aligned traffic drifting to expensive uncovered shapes.
	Phases [][]tpcd.DriftQuery
	// Adaptive enables EnableAdapt (a round at the end of every refresh
	// cycle, installed before the refresh returns); off, the initial
	// selection serves every phase.
	Adaptive bool
	// HotFrac, when in (0,1), skews every update batch: inserted foreign
	// keys draw from only the lowest HotFrac of the referenced key space
	// (tpcd.LogSkewedUpdates), so differential cardinalities drift away from
	// what the uniform-assumption histograms predict. 0 (or 1) keeps the
	// uniform update model.
	HotFrac float64
	// Feedback selects observed-cardinality capture (core.EnableFeedback):
	// off, telemetry-only, or corrections feeding each adaptation round.
	Feedback FeedbackMode
	// Check retains snapshots and verifies sampled results against
	// recomputation at their claimed epochs.
	Check bool
}

// AdaptiveResult is the outcome of one AdaptiveServe run.
type AdaptiveResult struct {
	Cfg AdaptiveConfig
	// PhaseQPS is the aggregate answered-queries-per-second per phase,
	// over the phase's reads and refreshes; TotalQPS over the whole run.
	PhaseQPS []float64
	TotalQPS float64
	// Queries is the number answered across all readers and phases.
	Queries int64
	// Rounds/Installs/Skipped mirror core.AdaptStats (zero when static).
	Rounds, Installs, Skipped int
	// SetChanges lists installed swaps as "±key" summaries.
	SetChanges []string
	// Epochs is the final published epoch.
	Epochs int64
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// CheckedSamples/DistinctStates/Consistent describe the consistency
	// check (meaningful with Cfg.Check); Verified is post-run Verify.
	CheckedSamples, DistinctStates int
	Consistent, Verified           bool
	// WorkloadReport is the tracker's view of the observed workload.
	WorkloadReport string
	// Q is the feedback store's counter snapshot at the end of the final
	// phase — observation counts and the q-error distribution of optimizer
	// estimates against executed cardinalities (zero when Cfg.Feedback is
	// FeedbackOff). The q-error window is reset at each phase boundary, so
	// Q's window statistics describe the last phase: the steady state after
	// the drift, where corrections have had cycles to propagate. QPhases
	// holds the per-phase snapshots.
	Q       feedback.Stats
	QPhases []feedback.Stats
}

// FeedbackMode says how a run uses the feedback store.
type FeedbackMode int

const (
	// FeedbackOff installs no observation hooks.
	FeedbackOff FeedbackMode = iota
	// FeedbackObserve records observed cardinalities and q-errors but never
	// corrects the cost model: the static-estimate baseline, measured.
	FeedbackObserve
	// FeedbackCorrect additionally feeds observations into every adaptation
	// round's cost model (diff.NewEngineObserved).
	FeedbackCorrect
)

// AdaptiveServe runs one drifting-workload serving experiment.
func AdaptiveServe(cfg AdaptiveConfig) AdaptiveResult {
	if cfg.Phases == nil {
		cfg.Phases = tpcd.DriftServeMix(cfg.Seed)
	}
	rels := adaptiveUpdatedRels()

	// Build the runtime with the selection tuned for phase 0: the declared
	// workload is the initial mix, exactly what a static deployment would
	// have been configured for.
	cat := tpcd.NewCatalog(cfg.ScaleFactor, true)
	db := tpcd.Generate(cat, cfg.ScaleFactor, cfg.Seed)
	sys := core.NewSystem(cat, core.Options{})
	for _, v := range tpcd.ViewSet5(cat, true) {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			panic(err)
		}
	}
	for i, q := range cfg.Phases[0] {
		def, err := viewdef.Parse(cat, q.SQL)
		if err != nil {
			panic(err)
		}
		if _, err := sys.AddQuery(fmt.Sprintf("w%d", i), def, q.Weight); err != nil {
			panic(err)
		}
	}
	u := diff.UniformPercent(cat, rels, cfg.UpdatePct)
	plan := sys.OptimizeWorkload(u, greedy.DefaultConfig())
	rt := plan.NewRuntime(db)
	rt.SetWorkers(cfg.Workers)
	rt.EnableServing(core.ServeOptions{CacheBudget: cfg.CacheBudget, RetainHistory: cfg.Check})
	if cfg.Adaptive {
		if err := rt.EnableAdapt(); err != nil {
			panic(err)
		}
	}
	switch cfg.Feedback {
	case FeedbackObserve:
		rt.EnableFeedbackObserver()
	case FeedbackCorrect:
		rt.EnableFeedback()
	}

	// Per-phase weighted round-robin schedules: each query index repeated
	// round(weight) times, so readers reproduce the phase mix exactly and
	// deterministically.
	allSQL := []string{}
	sqlIdx := map[string]int{}
	schedules := make([][]int, len(cfg.Phases))
	for p, phase := range cfg.Phases {
		for _, q := range phase {
			id, ok := sqlIdx[q.SQL]
			if !ok {
				id = len(allSQL)
				sqlIdx[q.SQL] = id
				allSQL = append(allSQL, q.SQL)
			}
			n := int(math.Round(q.Weight))
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				schedules[p] = append(schedules[p], id)
			}
		}
	}

	type sample struct {
		sqlIdx int
		epoch  int64
		rows   *storage.Relation
	}
	var (
		mu      sync.Mutex
		samples []sample
	)
	answered := make([]int64, len(cfg.Phases))
	// readCycle runs cycle c of phase p: every reader issues its reads, the
	// i-th on its schedule slot (i+w), and returns when all have answered.
	readCycle := func(p, c int) {
		sched := schedules[p]
		var wg sync.WaitGroup
		for w := 0; w < cfg.Readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := c * readsPerCycle; i < (c+1)*readsPerCycle; i++ {
					qi := sched[(i+w)%len(sched)]
					res, err := rt.Query(allSQL[qi])
					if err != nil {
						panic(fmt.Sprintf("bench: adaptive reader query failed: %v", err))
					}
					if cfg.Check {
						mu.Lock()
						if len(samples) < maxSamples {
							samples = append(samples, sample{qi, res.Epoch, res.Rows})
						}
						mu.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
		answered[p] += int64(cfg.Readers * readsPerCycle)
	}

	phaseDur := make([]time.Duration, len(cfg.Phases))
	var qPhases []feedback.Stats
	start := time.Now()
	for p := range cfg.Phases {
		t0 := time.Now()
		for c := 0; c < cfg.CyclesPerPhase; c++ {
			readCycle(p, c)
			if cfg.HotFrac > 0 && cfg.HotFrac < 1 {
				tpcd.LogSkewedUpdates(cat, rt.Ex.DB, rels, cfg.UpdatePct, cfg.HotFrac,
					cfg.Seed+int64(1000+p*100+c))
			} else {
				tpcd.LogUniformUpdates(cat, rt.Ex.DB, rels, cfg.UpdatePct,
					cfg.Seed+int64(1000+p*100+c))
			}
			rt.Refresh()
		}
		phaseDur[p] = time.Since(t0)
		if fb := rt.Feedback(); fb != nil {
			qPhases = append(qPhases, fb.Stats())
			if p < len(cfg.Phases)-1 {
				fb.ResetQ() // per-phase q-error windows; cumulative counters survive
			}
		}
	}
	elapsed := time.Since(start)

	st := rt.AdaptStats()
	out := AdaptiveResult{
		Cfg: cfg, Elapsed: elapsed,
		Rounds: st.Rounds, Installs: st.Installs, Skipped: st.Skipped,
		Epochs:         rt.Snapshots().Current().Epoch(),
		Consistent:     true,
		Verified:       rt.Verify() == nil,
		WorkloadReport: rt.WorkloadReport(),
		QPhases:        qPhases,
	}
	if n := len(qPhases); n > 0 {
		out.Q = qPhases[n-1]
	}
	for p := range cfg.Phases {
		out.Queries += answered[p]
		out.PhaseQPS = append(out.PhaseQPS, float64(answered[p])/phaseDur[p].Seconds())
	}
	out.TotalQPS = float64(out.Queries) / elapsed.Seconds()

	if cfg.Check {
		cd := dag.New(cat)
		roots := make([]*dag.Equiv, len(allSQL))
		for i, sql := range allSQL {
			roots[i] = cd.InsertExpr(viewdef.MustParse(cat, sql))
		}
		type key struct {
			sqlIdx int
			epoch  int64
		}
		want := make(map[key]*storage.Relation)
		for _, s := range samples {
			k := key{s.sqlIdx, s.epoch}
			w, ok := want[k]
			if !ok {
				snap := rt.Snapshots().At(s.epoch)
				if snap == nil {
					out.Consistent = false
					continue
				}
				w = exec.NewExecutor(snap.Database()).EvalNode(roots[s.sqlIdx])
				want[k] = w
			}
			if !storage.EqualMultiset(s.rows, w) {
				out.Consistent = false
			}
			out.CheckedSamples++
		}
		out.DistinctStates = len(want)
	}
	return out
}

// AdaptiveVsStatic runs the same drifting workload twice — static selection
// versus adaptive re-selection — over identically generated data and drift.
func AdaptiveVsStatic(cfg AdaptiveConfig) (adaptive, static AdaptiveResult) {
	cfg.Adaptive = false
	static = AdaptiveServe(cfg)
	cfg.Adaptive = true
	adaptive = AdaptiveServe(cfg)
	return adaptive, static
}

// Format renders one run.
func (r AdaptiveResult) Format() string {
	mode := "static"
	if r.Cfg.Adaptive {
		mode = "adaptive"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t-adapt/%s — drifting workload (SF %g, %g%% updates, %d readers, %d phases × %d cycles)\n",
		mode, r.Cfg.ScaleFactor, r.Cfg.UpdatePct, r.Cfg.Readers, len(r.Cfg.Phases), r.Cfg.CyclesPerPhase)
	fmt.Fprintf(&b, "  %d queries in %v, %d epochs", r.Queries, r.Elapsed.Round(time.Millisecond), r.Epochs)
	if r.Cfg.Adaptive {
		fmt.Fprintf(&b, "; %d rounds (%d skipped, steady workload), %d swaps installed",
			r.Rounds, r.Skipped, r.Installs)
	}
	b.WriteString("\n")
	for p, q := range r.PhaseQPS {
		fmt.Fprintf(&b, "  phase %d: %8.1f queries/s aggregate\n", p, q)
	}
	fmt.Fprintf(&b, "  overall: %8.1f queries/s\n", r.TotalQPS)
	if r.Cfg.Check {
		status := "all consistent with committed-state recomputation"
		if !r.Consistent {
			status = "INCONSISTENT RESULTS DETECTED"
		}
		fmt.Fprintf(&b, "  snapshot check: %d samples over %d (query, epoch) states — %s\n",
			r.CheckedSamples, r.DistinctStates, status)
	}
	if r.Verified {
		b.WriteString("  all views verified exact after the run\n")
	} else {
		b.WriteString("  VERIFICATION FAILED\n")
	}
	return b.String()
}
