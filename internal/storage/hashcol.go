package storage

// The whole-tuple hash column: the merges' hash carrier and the shard
// layer's slicing key.
//
// Every relation version can carry the typed tuple hash (algebra.Tuple.Hash)
// of each of its rows, indexed by ordinal, dead rows included (a delete only
// marks them; readers skip them through Relation.Live). The column is built
// lazily on one goroutine, cached on the version through an atomic pointer
// (so any number of snapshot readers may request it concurrently), carried
// across the refresh merges (merge.go: extended on insert-merge, left alone
// by a delete's marks, compacted with the relation, never rehashed) and
// dropped by any other in-place mutation.
//
// The delete-merge probes the tuple index built over the column (index.go).
// The shard layer reads it to slice relations by hash residue: every
// occurrence of a given tuple value carries the same hash, so operations
// whose state is keyed by whole tuples decompose by residue with no
// cross-shard communication (internal/shard).

import (
	"sync/atomic"

	"repro/internal/algebra"
)

// hashView is one relation version's hash column and the tuple index over
// it, built on a delete-merge's first use. A published version's column is
// immutable; its array may have spare capacity that a later version writes
// (merge.go), which is why Hashes clips what it hands out.
type hashView struct {
	hashes []uint64
	ix     atomic.Pointer[tupleIndex]
}

// Hashes returns the whole-tuple hash of every row by ordinal, dead rows
// included, building and caching the column on first use. Safe to call from
// any number of goroutines on a published (immutable) relation version.
// Callers must not mutate the slice.
func (r *Relation) Hashes() []uint64 { return clip(r.hashView().hashes) }

// hashView returns the version's hash view, hashing every row on first use;
// concurrent builders agree on the first one stored.
func (r *Relation) hashView() *hashView {
	if hv := r.part.Load(); hv != nil {
		return hv
	}
	hv := &hashView{hashes: make([]uint64, len(r.rows))}
	for i, t := range r.rows {
		hv.hashes[i] = t.Hash()
	}
	if !r.part.CompareAndSwap(nil, hv) {
		hv = r.part.Load()
	}
	return hv
}

// extended derives the hash view of the extended rows: the suffix's hashes
// (addHs, or hashed here when nil) append to the column and, when the tail is
// owned, to the tuple index. A derived version that does not own the tail
// starts without an index.
func (hv *hashView) extended(add []algebra.Tuple, addHs []uint64, own bool) *hashView {
	from := len(hv.hashes)
	out := &hashView{hashes: tail(hv.hashes, own)}
	if addHs != nil {
		out.hashes = append(out.hashes, addHs...)
	} else {
		for _, t := range add {
			out.hashes = append(out.hashes, t.Hash())
		}
	}
	if ix := hv.ix.Load(); ix != nil && own && ix.extend(out.hashes[from:], from) {
		out.ix.Store(ix)
	}
	return out
}

// compacted derives the hash view of the surviving rows: the column compacts
// in row order, and an index compacted in place is rebuilt over it, since
// every ordinal after the first dead one moves. A nil view stays nil (built
// lazily on demand).
func (hv *hashView) compacted(dead []int32, inPlace bool) *hashView {
	if hv == nil {
		return nil
	}
	out := &hashView{hashes: compacted(hv.hashes, dead, inPlace)}
	if ix := hv.ix.Load(); ix != nil && inPlace {
		ix.rebuild(out.hashes)
		out.ix.Store(ix)
	}
	return out
}

// invalidate drops the cached hash and column views and the live gathers
// after an in-place mutation that does not carry them. Only the single writer
// mutates a relation, so a plain load-then-store is enough; published
// versions are never mutated (the COW contract).
func (r *Relation) invalidate() {
	r.dropLive()
	if r.part.Load() != nil {
		r.part.Store(nil)
	}
	if r.colv.Load() != nil {
		r.colv.Store(nil)
	}
}
