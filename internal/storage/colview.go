package storage

// ColView is the columnar image of one relation version: lazily built typed
// column vectors plus cached key-column hash columns, the substrate of the
// columnar operator kernels (internal/exec). Like the hash column
// (hashcol.go) it is cached on the relation through an atomic pointer and
// carried across the refresh merges, in place and copy-on-write alike
// (merge.go) — extended on
// insert-merge (only the appended suffix is decoded/hashed), left alone by a
// delete-merge's marks, compacted by dead ordinal when the marks pass the
// compaction threshold (surviving runs move, nothing is rehashed) — and
// dropped by any other in-place mutation. It is indexed by ordinal, dead rows
// included; readers go through the relation's live ordinals
// (Relation.Ordinals). The view never owns row data:
// column vectors copy the typed payloads out of the tuples, and all operators
// gather their OUTPUT rows from the original tuples, so value fidelity (kinds,
// -0.0, NaN payloads) is preserved by construction.

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// ColRep classifies a column's physical representation: every row's value
// payload lives in one typed slice, or the column is mixed-kind and readers
// fall back to the row store.
type ColRep uint8

const (
	// RepMixed marks a column whose values do not share one payload class
	// (or an empty relation, where no class is established); batch operators
	// read such columns through the rows.
	RepMixed ColRep = iota
	// RepInt covers Int and Date values (both carry int64 payloads and
	// compare numerically on them).
	RepInt
	// RepFloat covers Float values.
	RepFloat
	// RepStr covers String values.
	RepStr
)

// ColVec is one materialized column. Exactly one of the payload slices is
// populated, selected by Rep (none for RepMixed).
type ColVec struct {
	Rep ColRep
	I   []int64
	F   []float64
	S   []string
}

// keyHashes caches the column-subset hash column for one key-column set,
// identical element-wise to algebra.Tuple.HashCols over the rows.
type keyHashes struct {
	cols []int
	h    []uint64
}

// ColView holds the lazily built columnar state of one relation version.
type ColView struct {
	rows []algebra.Tuple

	mu   sync.Mutex
	cols []*ColVec // per schema column, nil until first use; payloads keep their spare capacity
	pub  []*ColVec // cols as Col hands them out: payloads clipped to their length
	keys []keyHashes
}

func newColView(rows []algebra.Tuple, width int) *ColView {
	return &ColView{rows: rows, cols: make([]*ColVec, width), pub: make([]*ColVec, width)}
}

// ColView returns (creating and caching on first use) the relation's column
// view. Columns and hash columns inside it are built lazily on demand. Safe
// to call from any number of goroutines on a published (immutable) relation
// version: the cache is an atomic pointer and concurrent creators converge
// on equivalent views.
func (r *Relation) ColView() *ColView {
	if cv := r.colv.Load(); cv != nil {
		return cv
	}
	cv := newColView(r.rows, len(r.schema))
	r.colv.Store(cv)
	return cv
}

// Len returns the view's row count by ordinal, dead rows included.
func (cv *ColView) Len() int { return len(cv.rows) }

// Col returns column c, building and caching it on first use.
func (cv *ColView) Col(c int) *ColVec {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if v := cv.pub[c]; v != nil {
		return v
	}
	v := cv.cols[c]
	if v == nil {
		v = buildColVec(cv.rows, c)
		cv.cols[c] = v
	}
	cv.pub[c] = &ColVec{Rep: v.Rep, I: clip(v.I), F: clip(v.F), S: clip(v.S)}
	return cv.pub[c]
}

// buildColVec extracts column c of the rows into a typed vector, degrading
// to RepMixed the moment two payload classes meet.
func buildColVec(rows []algebra.Tuple, c int) *ColVec {
	if len(rows) == 0 {
		return &ColVec{Rep: RepMixed}
	}
	switch rep := repOf(rows[0][c]); rep {
	case RepInt:
		xs := make([]int64, len(rows))
		for i, t := range rows {
			if repOf(t[c]) != RepInt {
				return &ColVec{Rep: RepMixed}
			}
			xs[i] = t[c].I
		}
		return &ColVec{Rep: RepInt, I: xs}
	case RepFloat:
		xs := make([]float64, len(rows))
		for i, t := range rows {
			if t[c].Kind != catalog.Float {
				return &ColVec{Rep: RepMixed}
			}
			xs[i] = t[c].F
		}
		return &ColVec{Rep: RepFloat, F: xs}
	default:
		xs := make([]string, len(rows))
		for i, t := range rows {
			if t[c].Kind != catalog.String {
				return &ColVec{Rep: RepMixed}
			}
			xs[i] = t[c].S
		}
		return &ColVec{Rep: RepStr, S: xs}
	}
}

// repOf maps a value to its payload class.
func repOf(v algebra.Value) ColRep {
	switch v.Kind {
	case catalog.Int, catalog.Date:
		return RepInt
	case catalog.Float:
		return RepFloat
	default:
		return RepStr
	}
}

// KeyHashes returns the cached hash column for the given key-column subset,
// computing it on first use. Element i equals rows[i].HashCols(cols), so
// joins and aggregations probe with exactly the hashes a row-at-a-time
// evaluator would compute. It hashes sequentially whatever its Par argument,
// which is kept only because the performance ledger (benchmark/) calls it
// with one; drop it when the ledger is next revised.
func (cv *ColView) KeyHashes(cols []int, _ Par) []uint64 {
	cv.mu.Lock()
	for i := range cv.keys {
		if eqCols(cv.keys[i].cols, cols) {
			h := cv.keys[i].h
			cv.mu.Unlock()
			return clip(h)
		}
	}
	cv.mu.Unlock()

	rows := cv.rows
	h := make([]uint64, len(rows))
	for i, t := range rows {
		h[i] = t.HashCols(cols)
	}

	cv.mu.Lock()
	defer cv.mu.Unlock()
	// A concurrent caller may have installed the same key set meanwhile;
	// keep the first installation so every reader shares one column.
	for i := range cv.keys {
		if eqCols(cv.keys[i].cols, cols) {
			return clip(cv.keys[i].h)
		}
	}
	cv.keys = append(cv.keys, keyHashes{cols: append([]int(nil), cols...), h: h})
	return h
}

// CachedKeys returns a snapshot of the key-column sets whose hash columns
// are currently cached on the view, paired with the hash columns themselves
// (clipped to their length). The hash columns of a published version are
// immutable, so callers may retain the returned slices; those of a relation
// the writer still merges into in place are rewritten by the next merge. The
// column-set slices are copied. The shard layer uses this to ship
// already-built hash columns to workers alongside sliced rows.
func (cv *ColView) CachedKeys() (cols [][]int, hashes [][]uint64) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for _, k := range cv.keys {
		cols = append(cols, append([]int(nil), k.cols...))
		hashes = append(hashes, clip(k.h))
	}
	return cols, hashes
}

// InstallKeyHashes installs a precomputed hash column for a key-column set,
// e.g. one shipped from a coordinator that already paid the build pass. The
// column must satisfy the KeyHashes contract (element i == rows[i].HashCols
// (cols)); a wrong-length column is ignored. An existing cache entry for the
// set wins, so concurrent computes and installs converge on one column.
func (cv *ColView) InstallKeyHashes(cols []int, h []uint64) {
	if len(h) != len(cv.rows) {
		return
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for i := range cv.keys {
		if eqCols(cv.keys[i].cols, cols) {
			return
		}
	}
	cv.keys = append(cv.keys, keyHashes{cols: append([]int(nil), cols...), h: clip(h)})
}

func eqCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Par configures nothing. Batch and Chain select nothing: there is one
// operator engine (the chained columnar pipeline of internal/exec) and no
// code branches on them. The type exists only so the performance ledger
// (benchmark/), which may not change in the PR that removed the engine
// choice, still compiles and prints engine=chained on its env line from
// DefaultPar(). Delete it when the ledger is next revised.
type Par struct {
	Batch bool
	Chain bool
}

// DefaultPar returns the descriptor the performance ledger (benchmark/) reads
// for its env line: its two flags are set so the line prints engine=chained
// (see Par). Nothing else calls it; drop it when the ledger is next revised.
func DefaultPar() Par { return Par{Batch: true, Chain: true} }
