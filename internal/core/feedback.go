package core

// Feedback-driven costing: the execution→optimizer loop. EnableFeedback
// attaches observation hooks at every point the runtime already produces a
// true cardinality next to an optimizer estimate — operator outputs during
// refresh merges and recomputations (exec.Executor.Obs), per-step
// differential results (exec.Maintainer.ObsDelta), post-refresh stored view
// sizes (exec.Maintainer.ObsFull), and served query plans (the ad-hoc
// executors in Query). Observations accumulate in an internal/feedback.Store
// keyed by canonical DAG key, so they survive adaptation swaps and DAG
// rebuilds: the next adaptation round prices candidate plans against
// diff.NewEngineObserved with the store as the correction layer, and the
// greedy re-selection sees corrected costs wherever an observed cardinality
// exists.
//
// Feedback is memory-only and advisory: it never changes query answers, only
// cost estimates, and with it disabled every plan is byte-identical to the
// static path. On a durable (WAL-backed) runtime the hooks still record —
// the store is not persisted, and corrections only influence adaptation,
// which durable runtimes reject anyway (errAdaptDurable) — so the q-error
// telemetry stays available everywhere.

import (
	"repro/internal/dag"
	"repro/internal/feedback"
)

// EnableFeedback switches on observed-cardinality capture and returns the
// store (idempotent: subsequent calls return the same store). Call it before
// refreshing or serving concurrently — it installs hooks on the shared
// executor and maintainer. The store itself is concurrency-safe; hooks fire
// from the refresh writer and from reader goroutines serving queries.
func (r *Runtime) EnableFeedback() *feedback.Store { return r.enableFeedback(true) }

// EnableFeedbackObserver records observed cardinalities and q-errors without
// ever feeding corrections into re-selection: pure estimation-error
// telemetry, the fair baseline the feedback benchmark measures static
// estimates with. The first Enable call fixes the mode; later calls return
// the existing store unchanged.
func (r *Runtime) EnableFeedbackObserver() *feedback.Store { return r.enableFeedback(false) }

func (r *Runtime) enableFeedback(correct bool) *feedback.Store {
	r.adaptMu.Lock()
	defer r.adaptMu.Unlock()
	if r.fb != nil {
		return r.fb
	}
	r.fbCorrect = correct
	fb := feedback.NewStore()
	epoch := func() uint64 {
		if st := r.Mt.Snap; st != nil {
			return uint64(st.Current().Epoch())
		}
		return 0
	}
	// Serve-side executors (Query's ad-hoc executors) contribute observed
	// cardinalities but not q-errors: the serving front end prices plans with
	// its own static optimizer over the serving DAG, so its estimates are not
	// the ones feedback corrects, and folding them in would dilute the metric
	// that tracks the maintenance cost model's accuracy.
	r.fbObs = func(e *dag.Equiv, est, act float64) {
		fb.ObserveFull(e.Key, act, epoch())
	}
	// The shared executor runs maintenance work — refresh merges, recompute
	// fallbacks, swap materializations. Its operator outputs feed the
	// correction store, but not the q-error window: merge plumbing is
	// dominated by trivially exact estimates (scans, projections, reads of
	// results whose size was just observed) that would bury the estimates
	// the metric is about — the differential and final-cardinality
	// predictions recorded below.
	r.Ex.Obs = r.fbObs
	r.Mt.ObsFull = func(e *dag.Equiv, est, act float64) {
		fb.ObserveFull(e.Key, act, epoch())
		fb.RecordQ(est, act)
	}
	r.Mt.ObsDelta = func(e *dag.Equiv, table string, insert bool, est, act float64) {
		fb.ObserveDelta(e.Key, table, insert, act, epoch())
		fb.RecordQ(est, act)
	}
	r.fb = fb
	return fb
}

// Feedback returns the feedback store, or nil when EnableFeedback has not
// been called.
func (r *Runtime) Feedback() *feedback.Store {
	r.adaptMu.Lock()
	defer r.adaptMu.Unlock()
	return r.fb
}

// FeedbackStats returns a snapshot of the feedback counters (zero value when
// feedback is disabled), in the style of DurableStats/ServeStats.
func (r *Runtime) FeedbackStats() feedback.Stats {
	fb := r.Feedback()
	if fb == nil {
		return feedback.Stats{}
	}
	return fb.Stats()
}
