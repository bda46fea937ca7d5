package core

// Estimation-error telemetry. EnableFeedbackObserver attaches observation
// hooks at every point the runtime already produces a true cardinality next
// to an optimizer estimate — operator outputs during refresh merges and
// recomputations (exec.Executor.Obs), per-step differential results
// (exec.Maintainer.ObsDelta), post-refresh stored view sizes
// (exec.Maintainer.ObsFull), and served query plans (the ad-hoc executors in
// Query). Observations accumulate in an internal/feedback.Store keyed by
// canonical DAG key, and the store keeps the q-error of each estimate the
// maintenance cost model made, so a caller can report how far the static
// estimates drift as batches accumulate.
//
// The telemetry is memory-only and advisory: it never changes query answers
// or plans. On a durable (WAL-backed) runtime the hooks record too; the
// store is not persisted.

import (
	"repro/internal/dag"
	"repro/internal/feedback"
)

// EnableFeedbackObserver switches on observed-cardinality capture and
// returns the store (idempotent: subsequent calls return the same store).
// Call it before refreshing or serving concurrently — it installs hooks on
// the shared executor and maintainer. The store itself is concurrency-safe;
// hooks fire from the refresh writer and from reader goroutines serving
// queries.
func (r *Runtime) EnableFeedbackObserver() *feedback.Store {
	if r.fb != nil {
		return r.fb
	}
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
	// the maintenance cost model's, and folding them in would dilute the
	// metric that tracks that model's accuracy.
	r.fbObs = func(e *dag.Equiv, est, act float64) {
		fb.ObserveFull(e.Key, act, epoch())
	}
	// The shared executor runs maintenance work — refresh merges and
	// recompute fallbacks. Its operator outputs count as observations, but
	// not in the q-error window: merge plumbing is dominated by trivially
	// exact estimates (scans, projections, reads of results whose size was
	// just observed) that would bury the estimates the metric is about — the
	// differential and final-cardinality predictions recorded below.
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

// Feedback returns the feedback store, or nil when EnableFeedbackObserver
// has not been called.
func (r *Runtime) Feedback() *feedback.Store { return r.fb }

// FeedbackStats returns a snapshot of the feedback counters (zero value when
// feedback is disabled), in the style of DurableStats/ServeStats.
func (r *Runtime) FeedbackStats() feedback.Stats {
	if r.fb == nil {
		return feedback.Stats{}
	}
	return r.fb.Stats()
}
