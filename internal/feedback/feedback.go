// Package feedback records observed operator cardinalities next to the
// optimizer's estimates, so a runtime can report how far its static catalog
// histograms are from what execution actually produced. The executor and the
// differential refresh path report true output row counts keyed by canonical
// DAG key (dag.Equiv.Key — the unification key, so every logically
// equivalent subexpression shares one stream); the store counts the
// observations of each stream.
//
// Two observation families are kept, mirroring the two sizer families of the
// differential engine:
//
//   - full cardinalities: the row count of a node's complete result, observed
//     when a view is (re)materialized or an ad-hoc query plan runs;
//   - delta cardinalities: the row count of a differential result δ(e, i),
//     keyed by (node, updated table, insert|delete) — the update number i is
//     not stable across update specs, but the (table, sign) pair is.
//
// The store also tracks estimation error as the q-error of each
// (estimate, actual) pair — max(est/act, act/est), the standard factor-off
// metric — in a bounded ring, so runtime stats can report how wrong the
// optimizer currently is.
//
// All methods are safe for concurrent use: refresh observes while readers
// serve.
package feedback

import (
	"math"
	"sort"
	"sync"
)

// qWindow bounds the q-error ring.
const qWindow = 1024

// deltaKey identifies a differential observation: the node, the base table
// whose update produced the delta, and the update sign.
type deltaKey struct {
	key    string
	table  string
	insert bool
}

// Store is the concurrency-safe observed-cardinality store. full and delta
// count the observations of each stream.
type Store struct {
	mu    sync.RWMutex
	full  map[string]int64
	delta map[deltaKey]int64

	qring [qWindow]float64
	qpos  int
	qlen  int
	qall  int64 // q-errors ever recorded
	qsum  float64
	qmax  float64

	lastEpoch uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{full: make(map[string]int64), delta: make(map[deltaKey]int64)}
}

// valid reports whether rows is a row count: finite and not negative.
func valid(rows float64) bool {
	return rows >= 0 && !math.IsInf(rows, 0)
}

// ObserveFull counts an observed row count of a node's complete result. A
// negative, NaN or infinite count is dropped.
func (s *Store) ObserveFull(key string, rows float64, epoch uint64) {
	if !valid(rows) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.full[key]++
	s.lastEpoch = max(s.lastEpoch, epoch)
}

// ObserveDelta counts an observed row count of a differential result of a
// node under an update of the given table and sign, dropping invalid counts
// as ObserveFull does.
func (s *Store) ObserveDelta(key, table string, insert bool, rows float64, epoch uint64) {
	if !valid(rows) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delta[deltaKey{key: key, table: table, insert: insert}]++
	s.lastEpoch = max(s.lastEpoch, epoch)
}

// QError computes the q-error of an (estimate, actual) pair: the factor by
// which the estimate is off, symmetric in direction and >= 1. Both sides are
// shifted by one row so empty results (common for differentials) stay finite.
func QError(est, act float64) float64 {
	if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
		est = 0
	}
	if act < 0 {
		act = 0
	}
	e, a := est+1, act+1
	return math.Max(e/a, a/e)
}

// RecordQ folds the q-error of one (estimate, actual) pair into the ring.
func (s *Store) RecordQ(est, act float64) {
	q := QError(est, act)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.qring[s.qpos] = q
	s.qpos = (s.qpos + 1) % qWindow
	if s.qlen < qWindow {
		s.qlen++
	}
	s.qall++
	s.qsum += q
	if q > s.qmax {
		s.qmax = q
	}
}

// ResetQ clears the q-error window (the cumulative counters survive), so a
// benchmark can measure estimation error per phase.
func (s *Store) ResetQ() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.qpos, s.qlen = 0, 0
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// FullKeys and DeltaKeys count distinct observation streams.
	FullKeys, DeltaKeys int
	// Observations counts every kept observation across both families.
	Observations int64
	// QCount is the number of q-errors in the current window; QTotal the
	// number ever recorded.
	QCount int
	QTotal int64
	// QMedian, QP90 and QMean summarize the current window (1 = perfect
	// estimates); QMax is the worst error ever recorded. The window median is
	// dominated by whichever estimates are most numerous — often trivially
	// accurate ones — while QP90 tracks the misestimated tail the optimizer
	// actually pays for.
	QMedian, QP90, QMean, QMax float64
	// LastEpoch tags the newest observation.
	LastEpoch uint64
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		FullKeys:  len(s.full),
		DeltaKeys: len(s.delta),
		QCount:    s.qlen,
		QTotal:    s.qall,
		QMax:      s.qmax,
		LastEpoch: s.lastEpoch,
	}
	for _, n := range s.full {
		st.Observations += n
	}
	for _, n := range s.delta {
		st.Observations += n
	}
	if s.qlen > 0 {
		window := make([]float64, s.qlen)
		copy(window, s.qring[:s.qlen])
		sort.Float64s(window)
		mid := len(window) / 2
		if len(window)%2 == 1 {
			st.QMedian = window[mid]
		} else {
			st.QMedian = (window[mid-1] + window[mid]) / 2
		}
		p90 := (len(window)*9 + 9) / 10
		if p90 > len(window) {
			p90 = len(window)
		}
		st.QP90 = window[p90-1]
		sum := 0.0
		for _, q := range window {
			sum += q
		}
		st.QMean = sum / float64(len(window))
	}
	return st
}
