// Package feedback accumulates observed operator cardinalities next to the
// optimizer's estimates, so a runtime can report how far its static catalog
// histograms are from what execution actually produced. The executor and the
// differential refresh path report true output row counts keyed by canonical
// DAG key (dag.Equiv.Key — the unification key, so every logically
// equivalent subexpression shares one stream); the store smooths them with
// an EWMA, and its FullRows/DeltaRows read them back in the shape of
// diff.Corrections.
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
// optimizer currently is and benchmarks can show feedback shrinking it.
//
// All methods are safe for concurrent use: refresh observes while readers
// serve.
package feedback

import (
	"math"
	"sort"
	"sync"
)

// DefaultAlpha is the EWMA smoothing factor for repeated observations of the
// same key (a half-life of one observation: recent cycles dominate, history
// damps one-off spikes).
const DefaultAlpha = 0.5

// qWindow bounds the q-error ring.
const qWindow = 1024

// deltaKey identifies a differential observation: the node, the base table
// whose update produced the delta, and the update sign.
type deltaKey struct {
	key    string
	table  string
	insert bool
}

// entry is one smoothed observation stream.
type entry struct {
	rows  float64 // EWMA-smoothed observed cardinality
	count int64   // observations folded in
	epoch uint64  // epoch of the newest observation
}

// Store is the concurrency-safe observed-cardinality store.
type Store struct {
	mu    sync.RWMutex
	alpha float64
	full  map[string]*entry
	delta map[deltaKey]*entry

	qring [qWindow]float64
	qpos  int
	qlen  int
	qall  int64 // q-errors ever recorded
	qsum  float64
	qmax  float64

	lastEpoch uint64
}

// NewStore returns an empty store with the default smoothing factor.
func NewStore() *Store {
	return &Store{
		alpha: DefaultAlpha,
		full:  make(map[string]*entry),
		delta: make(map[deltaKey]*entry),
	}
}

// observe folds rows into e with EWMA smoothing.
func (s *Store) observe(e *entry, rows float64, epoch uint64) {
	if e.count == 0 {
		e.rows = rows
	} else {
		e.rows = s.alpha*rows + (1-s.alpha)*e.rows
	}
	e.count++
	if epoch > e.epoch {
		e.epoch = epoch
	}
	if epoch > s.lastEpoch {
		s.lastEpoch = epoch
	}
}

// ObserveFull records the true row count of a node's complete result.
func (s *Store) ObserveFull(key string, rows float64, epoch uint64) {
	if rows < 0 || math.IsNaN(rows) || math.IsInf(rows, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.full[key]
	if e == nil {
		e = &entry{}
		s.full[key] = e
	}
	s.observe(e, rows, epoch)
}

// FullRows returns the smoothed observed full cardinality of a node, if any.
func (s *Store) FullRows(key string) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.full[key]; ok {
		return e.rows, true
	}
	return 0, false
}

// ObserveDelta records the true row count of a differential result of a node
// under an update of the given table and sign.
func (s *Store) ObserveDelta(key, table string, insert bool, rows float64, epoch uint64) {
	if rows < 0 || math.IsNaN(rows) || math.IsInf(rows, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := deltaKey{key: key, table: table, insert: insert}
	e := s.delta[k]
	if e == nil {
		e = &entry{}
		s.delta[k] = e
	}
	s.observe(e, rows, epoch)
}

// DeltaRows returns the smoothed observed differential cardinality of a node
// under an update of the given table and sign, if any.
func (s *Store) DeltaRows(key, table string, insert bool) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.delta[deltaKey{key: key, table: table, insert: insert}]; ok {
		return e.rows, true
	}
	return 0, false
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
	// Observations counts every folded observation across both families.
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
	for _, e := range s.full {
		st.Observations += e.count
	}
	for _, e := range s.delta {
		st.Observations += e.count
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
