package storage

// The refresh merges: one extend kernel (insert-merge) and one compaction
// kernel (delete-merge), each carrying the relation's rows, its PartView and
// its ColView together and each parametrised by its destination, so the
// in-place and the copy-on-write forms (UnionCOW, ParMinusCOW) run the same
// loops.
//
// Which form runs is decided by ownership, not by a mode. The writer's entry
// points (InsertAllExtend, ParSubtractAll and the base folds built on them)
// return the merged version: the relation itself, written in place, while no
// snapshot holds it; a new copy-on-write version once PublishState has
// published it. Without a snapshot store nothing is ever published and every
// merge runs in place. With one, the first merge of a relation in a refresh
// batch makes one new version and later merges of the same batch write that
// version in place, since no reader can hold it before the batch's publish.
//
// Extend appends. In place it appends to the relation's own arrays with
// amortised growth. Copy-on-write it shares the tail: the first child of a
// version claims, with one compare-and-swap, the spare capacity behind the
// parent's arrays and writes only beyond the parent's lengths, so a union
// costs the delta; a second child of the same parent finds the tail taken and
// copies. Compaction removes the rows at a sorted list of ordinals by moving
// the surviving runs — within the same arrays in place, into fresh arrays
// (with slack for the next extend) copy-on-write.
//
// The invariant both keep: a byte reachable from a published version is never
// rewritten. A version's accessors hand out slices clipped to their length,
// so the shared tail is out of a reader's reach, append included.

import (
	"sync"

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
// arrays may be written (dst is r itself, or won r's tail).
func extendInto(dst, r *Relation, add []algebra.Tuple, own bool) {
	pv, cv := r.part.Load(), r.colv.Load()
	dst.rows = append(tail(r.rows, own), add...)
	if pv != nil {
		dst.part.Store(pv.extended(add, own))
	}
	if cv != nil {
		dst.colv.Store(cv.extended(dst.rows, own))
	}
}

// extended derives the partition view of the extended rows: the suffix's
// hashes and row ordinals append to the hash column and the partition lists.
func (pv *PartView) extended(add []algebra.Tuple, own bool) *PartView {
	out := &PartView{idx: make([][]int32, len(pv.idx)), hashes: tail(pv.hashes, own)}
	for q, ids := range pv.idx {
		out.idx[q] = tail(ids, own)
	}
	p := uint64(len(out.idx))
	for _, t := range add {
		h := t.Hash()
		out.idx[h%p] = append(out.idx[h%p], int32(len(out.hashes)))
		out.hashes = append(out.hashes, h)
	}
	return out
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
// rehashed.
func compactInto(dst, r *Relation, dead []int32, inPlace bool) {
	pv, cv := r.part.Load(), r.colv.Load()
	dst.rows = compacted(r.rows, dead, inPlace)
	dst.part.Store(pv.compacted(dead, inPlace))
	dst.colv.Store(cv.compacted(dst.rows, dead, inPlace))
}

// compacted derives the partition view of the surviving rows: hashes compact
// in row order, and each partition list drops its dead ordinals and lowers
// every survivor by the number of dead rows before it. A nil view stays nil
// (rebuilt lazily on demand).
func (pv *PartView) compacted(dead []int32, inPlace bool) *PartView {
	if pv == nil {
		return nil
	}
	out := &PartView{idx: make([][]int32, len(pv.idx)), hashes: compacted(pv.hashes, dead, inPlace)}
	for q, ids := range pv.idx {
		kept := ids[:0]
		if !inPlace {
			kept = make([]int32, 0, len(ids)+len(ids)/8+16)
		}
		k := 0
		for _, id := range ids {
			for k < len(dead) && dead[k] < id {
				k++
			}
			if k == len(dead) || dead[k] != id {
				kept = append(kept, id-int32(k))
			}
		}
		out.idx[q] = kept
	}
	return out
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
// Which rows a delete-merge removes.

// minusScratch is the reusable working state of one delete-merge.
type minusScratch struct {
	tab    ProbeTable
	hashes []uint64 // the removal set's tuple hashes
	used   []bool   // removal rows already matched to a removed row
	dead   []int32
}

var minusPool = sync.Pool{New: func() any { return new(minusScratch) }}

// deadRows returns the ascending ordinals of the rows that r − sub removes:
// for each distinct tuple of sub with multiplicity m, the first m equal rows
// of r — what SubtractAll removes. r is read through its cached tuple-hash
// column (seeded here on first use); sub is hashed row by row.
func (r *Relation) deadRows(sub *Relation, par Par, sc *minusScratch) []int32 {
	pv := r.part.Load()
	if pv == nil {
		pv = r.PartView(par)
	}
	sc.hashes = sc.hashes[:0]
	for _, t := range sub.rows {
		sc.hashes = append(sc.hashes, t.Hash())
	}
	return sc.match(pv.hashes, r.rows, sc.hashes, sub.rows, par)
}

// match is deadRows over explicit hash columns (hs[i] hashes rows[i], subHs[s]
// hashes sub[s]; equal tuples must carry equal hashes). The stored side is
// scanned behind sub's filter and only rows whose hash occurs in sub go on:
// contiguous ranges scan independently and concatenate in range order, so the
// candidate list is ascending at any setting of par. Multiplicities are then
// consumed in row order over the candidates alone, by value.
func (sc *minusScratch) match(hs []uint64, rows []algebra.Tuple, subHs []uint64, sub []algebra.Tuple, par Par) []int32 {
	tab := &sc.tab
	tab.Build(subHs, len(hs))
	scan := func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if h := hs[i]; tab.MayContain(h) && tab.First(h) >= 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	cand := sc.dead[:0]
	if !par.Enabled() || len(hs) < ParMinRows {
		cand = scan(0, len(hs), cand)
	} else {
		ranges := MorselRanges(len(hs), par.Partitions)
		outs := make([][]int32, len(ranges))
		forRangesStorage(ranges, par.Workers, func(ri, lo, hi int) {
			outs[ri] = scan(lo, hi, nil)
		})
		for _, o := range outs {
			cand = append(cand, o...)
		}
	}
	sc.used = zeroed(sc.used, len(sub))
	dead := cand[:0] // filtered in place: never ahead of the read position
	for _, i := range cand {
		for s := tab.First(hs[i]); s >= 0; s = tab.Next(s) {
			if !sc.used[s] && sub[s].Equal(rows[i]) {
				sc.used[s] = true
				dead = append(dead, i)
				break
			}
		}
	}
	sc.dead = dead
	return dead
}

// subtractInto sets dst to r − sub through the prefiltered probe and the
// compaction kernel.
func subtractInto(dst, r, sub *Relation, par Par, inPlace bool) {
	sc := minusPool.Get().(*minusScratch)
	defer minusPool.Put(sc)
	compactInto(dst, r, r.deadRows(sub, par.Norm(), sc), inPlace)
}

// carriesHashes decides whether a delete-merge takes the hash-carry path:
// whenever a cached partition view exists or the input is large enough to
// seed one — reusing the hash column beats rehashing every row, and the
// carried views keep the cross-version chain alive even at one partition.
// Below that the plain row loop (SubtractAll) is the whole job.
func (r *Relation) carriesHashes() bool {
	return r.part.Load() != nil || r.Len() >= ParMinRows
}

// ---------------------------------------------------------------------------
// Entry points.

// InsertAllExtend returns r ∪ o (r's rows first), carrying cached views
// forward instead of dropping them. An unpublished r is the writer's own and
// grows in place — rows, partition view and every built column and hash
// column extend by the appended rows — and is returned; a published r is left
// untouched and a new version (UnionCOW) is returned, so the caller must keep
// the result. The delete-merge counterpart is ParSubtractAll; together they
// keep a maintained result's hash chain alive across a whole refresh cycle at
// a cost that follows the delta.
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
	extendInto(r, r, o.rows, own)
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
// comment); later ones copy.
func UnionCOW(r, add *Relation) *Relation {
	if len(add.schema) != len(r.schema) {
		panic("storage: UnionCOW schema arity mismatch")
	}
	out := NewRelation(r.schema)
	out.shares = true // the tail or, at the least, the untouched partition lists
	extendInto(out, r, add.rows, r.claimed.CompareAndSwap(false, true))
	return out
}

// ParSubtractAll returns r − o with SubtractAll's semantics (same rows
// removed, same order kept) through the prefiltered probe. Like
// InsertAllExtend it compacts an unpublished r in place and returns it, and
// leaves a published r untouched, returning a new version (ParMinusCOW).
func (r *Relation) ParSubtractAll(o *Relation, par Par) *Relation {
	switch {
	case o.Len() == 0:
		return r
	case r.published.Load():
		return ParMinusCOW(r, o, par)
	case !r.carriesHashes():
		r.SubtractAll(o)
		return r
	}
	// Arrays shared with another version are left alone: compact into fresh.
	subtractInto(r, r, o, par, !r.claimed.Load() && !r.shares)
	r.claimed.Store(false)
	r.shares = false
	return r
}

// ParMinusCOW returns r − sub (multiset monus) as a new relation without
// mutating either input; row order matches SubtractAll applied to a copy of
// r. The cached views are carried to the new version, so a copy-on-write
// refresh cycle (UnionCOW then ParMinusCOW) never rehashes a stored result.
func ParMinusCOW(r, sub *Relation, par Par) *Relation {
	out := NewRelation(r.schema)
	if !r.carriesHashes() {
		out.rows = append(out.rows, r.rows...)
		out.SubtractAll(sub)
		return out
	}
	subtractInto(out, r, sub, par, false)
	return out
}

// MinusCOW is ParMinusCOW at the sequential setting.
func MinusCOW(r, sub *Relation) *Relation { return ParMinusCOW(r, sub, Par{}) }

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

// ApplyDeletes is ApplyDeletesPar at the sequential setting.
func (db *Database) ApplyDeletes(name string) *Relation { return db.ApplyDeletesPar(name, Par{}) }

// ApplyDeletesPar folds δ− into the base relation (ParSubtractAll), installs
// the resulting version, clears the delta and returns the version.
func (db *Database) ApplyDeletesPar(name string, par Par) *Relation {
	d := db.deltas[name]
	r := db.relations[name].ParSubtractAll(d.Minus, par)
	db.relations[name] = r
	d.Minus = NewRelation(d.Minus.Schema())
	return r
}
