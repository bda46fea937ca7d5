package storage

// The refresh merges: one extend kernel (insert-merge) and one marking kernel
// (delete-merge), each carrying the relation's rows, its hash column (with the
// tuple index over it) and its ColView together, so the
// in-place and the copy-on-write forms (UnionCOW, MinusCOW) run the same
// loops.
//
// Which form runs is decided by ownership, not by a mode. The writer's entry
// points (InsertAllExtend, SubtractAllCompact and the base folds built on
// them) return the merged version: the relation itself, written in place,
// while no snapshot holds it; a new copy-on-write version once PublishState
// has published it. Without a snapshot store nothing is ever published and
// every merge runs in place. With one, the first merge of a relation in a
// refresh batch makes one new version and later merges of the same batch
// write that version in place, since no reader can hold it before the
// batch's publish.
//
// Extend appends. In place it appends to the relation's own arrays with
// amortised growth. Copy-on-write it shares the tail: the first child of a
// version claims, with one compare-and-swap, the spare capacity behind the
// parent's arrays and writes only beyond the parent's lengths, so a union
// costs the delta; a second child of the same parent finds the tail taken and
// copies. The tail's owner also appends the new ordinals to the lineage's
// tuple index (index.go).
//
// A delete marks. Rows keep their ordinals: each removed row is found by
// probing the tuple index with its hash, confirmed by value, and marked in
// the version's dead-row bitmap, so a delete costs the rows it removes, not
// the rows stored. A copy-on-write delete shares every array of its parent
// and copies only the bitmap (one bit per row). Readers skip the dead rows
// (Relation.Rows, Relation.Ordinals). Once more than 1/compactShare of a
// version's rows are dead, the delete compacts it: the surviving runs move —
// within the same arrays in place, into fresh arrays (with slack for the next
// extend) copy-on-write — and the tuple index is rebuilt.
//
// The invariant both keep: a byte reachable from a published version is never
// rewritten. A version's accessors hand out slices clipped to their length,
// so the shared tail is out of a reader's reach, append included. The tuple
// index is the one structure a descendant writes into while an ancestor may
// still read it, and an ancestor's probes skip every entry past its length.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
)

// clip returns s with no spare capacity: an append to it reallocates.
func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// tail returns s ready to be appended to: s itself when the caller owns the
// capacity behind it, else clipped, so that the first append moves it to an
// array of its own (grown by append's amortised factor).
func tail[T any](s []T, own bool) []T {
	if own {
		return s
	}
	return clip(s)
}

// compacted returns s without the elements at the ascending ordinals dead,
// moving the surviving runs with copy: within s's own array when inPlace
// (elements before the first dead one stay put, and the vacated end is zeroed
// so it pins nothing), else into a fresh array.
func compacted[T any](s []T, dead []int32, inPlace bool) []T {
	if len(s) == 0 || (inPlace && len(dead) == 0) {
		return s
	}
	first := len(s)
	if len(dead) > 0 {
		first = int(dead[0])
	}
	var dst []T
	if inPlace {
		dst = s[:first]
	} else {
		n := len(s) - len(dead)
		dst = append(make([]T, 0, n+n/8+16), s[:first]...)
	}
	for lo, k := first+1, 1; lo <= len(s); k++ {
		hi := len(s)
		if k < len(dead) {
			hi = int(dead[k])
		}
		dst = append(dst, s[lo:hi]...)
		lo = hi + 1
	}
	if inPlace {
		clear(s[len(dst):])
	}
	return dst
}

// extendInto sets dst to r plus the appended rows, carrying every cached view
// by decoding and hashing only the suffix. own says the capacity behind r's
// arrays may be written (dst is r itself, or won r's tail). The dead-row
// bitmap is the caller's to set: the appended ordinals are live.
func extendInto(dst, r, o *Relation, own bool) {
	hv, cv := r.part.Load(), r.colv.Load()
	add := o.Rows()
	dst.rows = append(tail(r.rows, own), add...)
	if hv != nil {
		dst.part.Store(hv.extended(add, o.hashColumn(), own))
	}
	if cv != nil {
		dst.colv.Store(cv.extended(dst.rows, own))
	}
}

// extended derives the column view of the extended rows: built columns and
// hash columns grow by the suffix; a suffix value that breaks a column's
// payload class degrades that column to RepMixed. Unbuilt columns stay
// unbuilt.
func (cv *ColView) extended(rows []algebra.Tuple, own bool) *ColView {
	out := newColView(rows, len(cv.cols))
	suffix := rows[len(cv.rows):]
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for c, v := range cv.cols {
		if v != nil {
			out.cols[c] = v.extended(suffix, c, own)
		}
	}
	out.keys = make([]keyHashes, len(cv.keys))
	for i, k := range cv.keys {
		h := tail(k.h, own)
		for _, t := range suffix {
			h = append(h, t.HashCols(k.cols))
		}
		out.keys[i] = keyHashes{cols: k.cols, h: h}
	}
	return out
}

// extended grows one typed vector by the suffix values of column c.
func (v *ColVec) extended(suffix []algebra.Tuple, c int, own bool) *ColVec {
	out := &ColVec{Rep: v.Rep, I: tail(v.I, own), F: tail(v.F, own), S: tail(v.S, own)}
	for _, t := range suffix {
		x := t[c]
		if repOf(x) != v.Rep {
			return &ColVec{Rep: RepMixed}
		}
		switch v.Rep {
		case RepInt:
			out.I = append(out.I, x.I)
		case RepFloat:
			out.F = append(out.F, x.F)
		default:
			out.S = append(out.S, x.S)
		}
	}
	return out
}

// compactInto sets dst to r without the rows at the ascending ordinals dead,
// carrying every cached view by index arithmetic: nothing is decoded or
// rehashed. The tuple index is rebuilt over the compacted hash column — in
// its own arrays when compacting in place — since every ordinal after the
// first dead one moves.
func compactInto(dst, r *Relation, dead []int32, inPlace bool) {
	hv, cv := r.part.Load(), r.colv.Load()
	dst.rows = compacted(r.rows, dead, inPlace)
	dst.part.Store(hv.compacted(dead, inPlace))
	dst.colv.Store(cv.compacted(dst.rows, dead, inPlace))
}

// compacted derives the column view of the surviving rows: built vectors and
// hash columns compact by ordinal. A nil view stays nil.
func (cv *ColView) compacted(rows []algebra.Tuple, dead []int32, inPlace bool) *ColView {
	if cv == nil {
		return nil
	}
	out := newColView(rows, len(cv.cols))
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for c, v := range cv.cols {
		if v != nil {
			out.cols[c] = &ColVec{Rep: v.Rep, I: compacted(v.I, dead, inPlace),
				F: compacted(v.F, dead, inPlace), S: compacted(v.S, dead, inPlace)}
		}
	}
	out.keys = make([]keyHashes, len(cv.keys))
	for i, k := range cv.keys {
		out.keys[i] = keyHashes{cols: k.cols, h: compacted(k.h, dead, inPlace)}
	}
	return out
}

// ---------------------------------------------------------------------------
// The delete-merge: marks, then a compaction past the threshold.

// compactShare is the threshold of the delete-merge: a version compacts once
// more than 1/compactShare of its rows are dead. Below it a delete costs the
// probes of the removed rows and the readers skip the dead ones; the
// compaction that resets it moves every row once.
const compactShare = 8

// tupleIndex returns the version's tuple index, building the hash column and
// the index over it on first use.
func (r *Relation) tupleIndex() *tupleIndex {
	hv := r.hashView()
	if ix := hv.ix.Load(); ix != nil {
		return ix
	}
	ix := newTupleIndex(hv.hashes)
	if !hv.ix.CompareAndSwap(nil, ix) {
		ix = hv.ix.Load()
	}
	return ix
}

// subtract removes sub from r by marking, on a version the caller may write,
// and returns how many stored rows it examined (mark). Past the threshold the
// version then compacts, and the rows the compaction moved count as examined
// too.
func (r *Relation) subtract(sub *Relation) int {
	rows := sub.Rows()
	hs := sub.hashColumn()
	if hs == nil {
		buf := wordScratch.Get().(*[]uint64)
		defer wordScratch.Put(buf)
		for _, t := range rows {
			*buf = append(*buf, t.Hash())
		}
		hs, *buf = *buf, (*buf)[:0]
	}
	examined := r.mark(rows, hs)
	if r.ndead*compactShare > len(r.rows) {
		examined += len(r.rows)
		r.compact()
	}
	return examined
}

// mark marks, for each row of sub (subHs[s] hashes sub[s] as the version's
// hash column hashes its rows), the lowest live row of r equal to it not
// marked already — for each distinct tuple of sub with multiplicity m, the
// first m equal rows, what SubtractAll removes. The return value counts the
// tuple-index entries examined.
//
// It runs in two passes, so that the loads of the rows it compares can be
// issued ahead of the comparisons (touch). The first probes the index for
// every row of sub and pairs it with the lowest live ordinal carrying its
// hash. The second confirms each pair by value and marks the row. A pair that
// does not confirm — a hash collision, or an ordinal an equal row of sub has
// just taken — walks on along its hash's ring.
func (r *Relation) mark(sub []algebra.Tuple, subHs []uint64) int {
	ix := r.tupleIndex()
	n := int32(len(r.rows))
	r.dead = zeroGrown(r.dead, (len(r.rows)+63)>>6)
	buf := wordScratch.Get().(*[]uint64)
	defer wordScratch.Put(buf)
	pairs := (*buf)[:0]
	examined := 0
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for s := range sub {
		for j := ix.first(subHs[s]); j >= 0 && j < n; j = ix.after(j) {
			examined++
			if r.Live(int(j)) {
				pairs = append(pairs, uint64(j)<<32|uint64(s))
				break
			}
		}
	}
	*buf = pairs[:0]
	var touched uint64
	for b, p := range pairs {
		if b%touchBlock == 0 {
			touched += touch(r.rows, sub, pairs[b:min(b+touchBlock, len(pairs))])
		}
		j, t := int32(p>>32), sub[uint32(p)]
		for ; j >= 0 && j < n; j = ix.after(j) {
			if r.Live(int(j)) && r.rows[j].Equal(t) {
				r.dead[j>>6] |= 1 << (uint(j) & 63)
				r.ndead++
				break
			}
			examined++
		}
	}
	touchSink.Add(touched)
	r.dropLive()
	return examined
}

// touchBlock is how many probe pairs touch reads ahead of the confirmations.
const touchBlock = 32

// touchSink keeps touch's loads from being optimised away.
var touchSink atomic.Uint64

// touch loads the values of the stored and the removal rows of a block of
// probe pairs before they are compared: the loads are independent of one
// another, so their cache misses overlap instead of stalling each Equal in
// turn.
func touch(rows, sub []algebra.Tuple, pairs []uint64) uint64 {
	var x uint64
	for _, p := range pairs {
		a, b := rows[p>>32], sub[uint32(p)]
		for c := 0; c < len(a); c += 2 {
			x += uint64(a[c].Kind)
		}
		for c := 0; c < len(b); c += 2 {
			x += uint64(b[c].Kind)
		}
	}
	return x
}

// The delete-merge's scratch arrays: the removal set's hash column and the
// probe pairs (wordScratch), and the ordinal lists compactions consume
// (deadScratch).
var (
	wordScratch = sync.Pool{New: func() any { return new([]uint64) }}
	deadScratch = sync.Pool{New: func() any { return new([]int32) }}
)

// compact removes the dead rows for good: in place when r owns its arrays,
// into fresh ones (with slack for the next extend) when they are shared.
func (r *Relation) compact() {
	buf := deadScratch.Get().(*[]int32)
	dead := (*buf)[:0]
	for w, word := range r.dead {
		for ; word != 0; word &= word - 1 {
			dead = append(dead, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	compactInto(r, r, dead, !r.claimed.Load() && !r.shares)
	*buf = dead
	deadScratch.Put(buf)
	clear(r.dead)
	r.dead, r.ndead = r.dead[:0], 0
	r.claimed.Store(false)
	r.shares = false
	r.dropLive()
}

// hashColumn returns the whole-tuple hash of each row, in row order, when r
// carries it — a cached hash column and no dead rows — else nil. A merge
// reads a delta's hash column through it: the refresh driver hashes the
// delta it folds beside the step's differentials (Hashes), so the fold does
// not hash on the writer.
func (r *Relation) hashColumn() []uint64 {
	if hv := r.part.Load(); hv != nil && r.ndead == 0 {
		return clip(hv.hashes)
	}
	return nil
}

// zeroGrown returns ws extended with zero words to at least n words.
func zeroGrown(ws []uint64, n int) []uint64 {
	if len(ws) >= n {
		return ws
	}
	if cap(ws) >= n {
		old := len(ws)
		ws = ws[:n]
		clear(ws[old:])
		return ws
	}
	return append(ws, make([]uint64, n-len(ws))...)
}

// deadCopy returns a copy of r's dead-row bitmap for a derived version.
func (r *Relation) deadCopy() []uint64 {
	if r.ndead == 0 {
		return nil
	}
	return append([]uint64(nil), r.dead...)
}

// ---------------------------------------------------------------------------
// Entry points.

// InsertAllExtend returns r ∪ o (r's rows first), carrying cached views
// forward instead of dropping them. An unpublished r is the writer's own and
// grows in place — rows, hash column and its tuple index, and every built
// column and hash column extend by the appended rows — and is returned; a
// published r is left untouched and a new version (UnionCOW) is returned, so
// the caller must keep the result. The delete-merge counterpart is
// SubtractAllCompact; together they keep a maintained result's hash chain
// alive across a whole refresh cycle at a cost that follows the delta.
func (r *Relation) InsertAllExtend(o *Relation) *Relation {
	if len(o.schema) != len(r.schema) {
		panic("storage: InsertAllExtend schema arity mismatch")
	}
	if o.Len() == 0 {
		return r
	}
	if r.published.Load() {
		return UnionCOW(r, o)
	}
	own := !r.claimed.Load()
	extendInto(r, r, o, own)
	r.dropLive()
	if !own { // the tail was a child's: r now holds clipped arrays or fresh ones
		r.claimed.Store(false)
		r.shares = true
	}
	return r
}

// UnionCOW returns r ∪ add (multiset union, r's rows first) as a new
// relation without mutating either input. Row order matches
// Relation.InsertAll applied to a copy of r. The first UnionCOW off a version
// shares its arrays and writes only the added rows behind them (see the file
// comment); later ones copy. The new version copies r's dead-row bitmap.
func UnionCOW(r, add *Relation) *Relation {
	if len(add.schema) != len(r.schema) {
		panic("storage: UnionCOW schema arity mismatch")
	}
	out := NewRelation(r.schema)
	out.shares = true // r's arrays: behind a claimed tail, or as they are when add is empty
	extendInto(out, r, add, r.claimed.CompareAndSwap(false, true))
	out.dead, out.ndead = r.deadCopy(), r.ndead
	return out
}

// SubtractAllCompact returns r − o with SubtractAll's semantics (same rows
// removed, same order kept) by marking the removed rows dead. Like
// InsertAllExtend it marks an unpublished r in place and returns it, and
// leaves a published r untouched, returning a new version (MinusCOW).
func (r *Relation) SubtractAllCompact(o *Relation) *Relation {
	out, _ := r.subtractAll(o)
	return out
}

// subtractAll is SubtractAllCompact that also returns how many stored rows
// the merge examined (subtract).
func (r *Relation) subtractAll(o *Relation) (*Relation, int) {
	switch {
	case o.Len() == 0:
		return r, 0
	case r.published.Load():
		out := r.child(true)
		return out, out.subtract(o)
	}
	return r, r.subtract(o)
}

// MinusCOW returns r − sub (multiset monus) as a new relation without
// mutating either input; its rows match SubtractAll applied to a copy of r.
// The new version shares r's rows and cached views and copies only its
// dead-row bitmap before marking, so a copy-on-write delete never rehashes a
// stored result, and copies it only when the marks pass the compaction
// threshold. It leaves the tail of a published r to the writer's next
// version: a query's difference over a stored relation must not make the
// next refresh copy it.
func MinusCOW(r, sub *Relation) *Relation {
	out := r.child(!r.published.Load())
	if sub.Len() > 0 {
		out.subtract(sub)
	}
	return out
}

// child returns a new version holding exactly r's rows: its arrays, views and
// tuple index are r's, and its dead-row bitmap a copy. With claim it claims
// the capacity behind r's arrays, so that its own first extend writes behind
// them; when it does not claim, or another version holds the claim, it is
// marked claimed itself, so that it never appends into capacity that is not
// its own. An unpublished r must be claimed: the claim is what keeps r from
// compacting in place the arrays the child shares.
func (r *Relation) child(claim bool) *Relation {
	out := NewRelation(r.schema)
	out.shares = true
	out.rows = r.rows
	if !claim || !r.claimed.CompareAndSwap(false, true) {
		out.rows = clip(r.rows)
		out.claimed.Store(true)
	}
	out.part.Store(r.part.Load())
	out.colv.Store(r.colv.Load())
	out.dead, out.ndead = r.deadCopy(), r.ndead
	return out
}

// ApplyInserts folds δ+ into the base relation (InsertAllExtend), installs
// the resulting version, clears the delta and returns the version. The
// refresh driver calls this after propagating the insert differential (paper
// §3.1.1: propagate, then update the base).
func (db *Database) ApplyInserts(name string) *Relation {
	d := db.deltas[name]
	r := db.relations[name].InsertAllExtend(d.Plus)
	db.relations[name] = r
	d.Plus = NewRelation(d.Plus.Schema())
	return r
}

// ApplyDeletes folds δ− into the base relation (SubtractAllCompact),
// installs the resulting version, clears the delta and returns the version
// with the number of stored rows the fold examined: the tuple-index entries
// its probes visited, plus every row when the fold passed the compaction
// threshold.
func (db *Database) ApplyDeletes(name string) (*Relation, int) {
	d := db.deltas[name]
	r, examined := db.relations[name].subtractAll(d.Minus)
	db.relations[name] = r
	d.Minus = NewRelation(d.Minus.Schema())
	return r, examined
}
