package storage

// Hash-partitioned storage and the shared partition-parallel configuration.
//
// Every relation version can expose a PartView: a hash partitioning of its
// rows on the typed tuple hash (algebra.Tuple.Hash), represented as per-
// partition ascending row-index slices plus the per-row hash array. The view
// is built lazily, cached on the relation version through an atomic pointer
// (so any number of snapshot readers may request it concurrently), and
// invalidated by in-place mutation. Copy-on-write union carries the view
// forward per partition: partitions the delta does not touch share the
// previous version's index slices — the per-partition COW that keeps
// Snapshot epochs cheap under partitioned execution.
//
// The partitioning is on the full tuple hash, so every occurrence of a given
// tuple value lands in the same partition. Operations whose state is keyed
// by whole tuples — duplicate elimination, multiset difference, the
// TupleCounts multiset — therefore decompose into independent per-partition
// problems with no cross-partition communication, and the per-partition
// results recombine in ascending original-row order, which keeps output
// byte-identical to the sequential implementation at any partition count.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
)

// Par configures partition-parallel execution: Partitions is the data-split
// fan-out (hash partitions for keyed operators, contiguous morsel ranges for
// order-preserving ones), Workers bounds the goroutines that process the
// split. The zero value means sequential execution. Results are identical at
// any setting; see the determinism notes on the individual operators.
type Par struct {
	// Partitions is the number of hash partitions / morsel ranges (<=1:
	// sequential single partition).
	Partitions int
	// Workers bounds concurrent partition goroutines (<=0: one per
	// partition, capped at runtime.GOMAXPROCS(0)).
	Workers int
	// Batch and Chain select nothing: there is one operator engine (the
	// chained columnar pipeline of internal/exec) and no code branches on
	// them. They exist only so the performance ledger (benchmark/), which
	// may not change in the PR that removed the engine choice, still compiles
	// and prints engine=chained on its env line from DefaultPar(). Delete
	// them when the ledger is next revised.
	Batch bool
	Chain bool
}

// Norm resolves defaults: at least one partition, and a concrete worker
// count.
func (p Par) Norm() Par {
	if p.Partitions < 1 {
		p.Partitions = 1
	}
	if p.Workers < 1 {
		p.Workers = p.Partitions
		if g := runtime.GOMAXPROCS(0); p.Workers > g {
			p.Workers = g
		}
	}
	if p.Workers > p.Partitions {
		p.Workers = p.Partitions
	}
	return p
}

// Enabled reports whether the configuration asks for any parallelism.
func (p Par) Enabled() bool { return p.Partitions > 1 }

// ParMinRows is the input size below which partition-parallel helpers fall
// back to their sequential twins: goroutine startup dominates under it.
// A variable so tests can force the parallel paths on small inputs.
var ParMinRows = 2048

// RunWorkers runs fn(w) for w in [0, n), on the caller's goroutine plus n−1
// spawned ones, and waits for all. A panic in any worker is re-raised on the
// caller (first one wins), preserving sequential failure semantics.
func RunWorkers(n int, fn func(w int)) {
	if n <= 1 {
		fn(0)
		return
	}
	var (
		mu sync.Mutex
		pv interface{}
	)
	catch := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if pv == nil {
					pv = r
				}
				mu.Unlock()
			}
		}()
		fn(w)
	}
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			catch(w)
		}(w)
	}
	catch(0)
	wg.Wait()
	if pv != nil {
		panic(pv)
	}
}

// ForParts distributes partition numbers [0, parts) over the configured
// workers via an atomic claim counter and runs body(p) for each.
func ForParts(parts int, workers int, body func(p int)) {
	if workers > parts {
		workers = parts
	}
	var next atomic.Int64
	RunWorkers(workers, func(int) {
		for {
			p := int(next.Add(1)) - 1
			if p >= parts {
				return
			}
			body(p)
		}
	})
}

// MorselRanges splits [0, n) into parts contiguous ranges of near-equal
// size. Order-preserving operators process ranges independently and
// concatenate the per-range outputs in range order, which reproduces the
// sequential output exactly at any range count.
func MorselRanges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if parts == 0 {
		return nil
	}
	out := make([][2]int, parts)
	step, rem := n/parts, n%parts
	lo := 0
	for i := range out {
		hi := lo + step
		if i < rem {
			hi++
		}
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// ---------------------------------------------------------------------------

// PartView is the hash-partition index of one relation version: for each
// partition, the ascending row indexes whose tuple hash falls in it, plus
// the per-row hash array (so consumers never rehash). It is immutable after
// construction.
type PartView struct {
	idx    [][]int32
	hashes []uint64
}

// Parts returns the partition count.
func (pv *PartView) Parts() int { return len(pv.idx) }

// Rows returns partition p's ascending row indexes. Callers must not mutate
// the slice.
func (pv *PartView) Rows(p int) []int32 { return pv.idx[p] }

// Hash returns row i's full tuple hash.
func (pv *PartView) Hash(i int) uint64 { return pv.hashes[i] }

// PartView returns (building and caching on first use) the relation's hash
// partitioning at par.Partitions partitions. Safe to call from any number of
// goroutines on a published (immutable) relation version: the cache is an
// atomic pointer and concurrent builders converge on identical views. A
// cached view at a different partition count is rebuilt.
func (r *Relation) PartView(par Par) *PartView {
	par = par.Norm()
	if pv := r.part.Load(); pv != nil && len(pv.idx) == par.Partitions {
		return pv
	}
	pv := buildPartView(r.rows, par)
	r.part.Store(pv)
	return pv
}

// buildPartView hashes every row (morsel-parallel) and scatters the row
// indexes into per-partition ascending lists (one counting pass plus one
// fill pass — O(n), not O(partitions × n)).
func buildPartView(rows []algebra.Tuple, par Par) *PartView {
	n := len(rows)
	pv := &PartView{hashes: make([]uint64, n)}
	ranges := MorselRanges(n, par.Partitions)
	workers := par.Workers
	if n < ParMinRows {
		workers = 1
	}
	var nextR atomic.Int64
	RunWorkers(workers, func(int) {
		for {
			ri := int(nextR.Add(1)) - 1
			if ri >= len(ranges) {
				return
			}
			for i := ranges[ri][0]; i < ranges[ri][1]; i++ {
				pv.hashes[i] = rows[i].Hash()
			}
		}
	})
	pv.idx = ScatterByHash(pv.hashes, par.Partitions)
	return pv
}

// ScatterByHash distributes indexes [0, len(hs)) into per-partition
// ascending lists by hash residue: one counting pass sizes each list
// exactly, one fill pass scatters. The partition-parallel operators use it
// to co-partition transient key-hash arrays without per-partition rescans.
func ScatterByHash(hs []uint64, parts int) [][]int32 {
	P := uint64(parts)
	counts := make([]int, parts)
	for _, h := range hs {
		counts[int(h%P)]++
	}
	out := make([][]int32, parts)
	for p := range out {
		out[p] = make([]int32, 0, counts[p])
	}
	for i, h := range hs {
		p := int(h % P)
		out[p] = append(out[p], int32(i))
	}
	return out
}

// invalidate drops the cached partition and column views after an in-place
// mutation. Only the single writer mutates a relation, so a plain
// load-then-store is enough; published versions are never mutated (the COW
// contract).
func (r *Relation) invalidate() {
	if r.part.Load() != nil {
		r.part.Store(nil)
	}
	if r.colv.Load() != nil {
		r.colv.Store(nil)
	}
}

// ParClone deep-copies the relation with the configured parallelism. Output
// is identical to Clone.
func (r *Relation) ParClone(par Par) *Relation {
	par = par.Norm()
	n := len(r.rows)
	if !par.Enabled() || n < ParMinRows {
		return r.Clone()
	}
	out := NewRelation(r.schema)
	out.rows = make([]algebra.Tuple, n)
	ranges := MorselRanges(n, par.Partitions)
	var next atomic.Int64
	RunWorkers(par.Workers, func(int) {
		for {
			ri := int(next.Add(1)) - 1
			if ri >= len(ranges) {
				return
			}
			for i := ranges[ri][0]; i < ranges[ri][1]; i++ {
				out.rows[i] = r.rows[i].Clone()
			}
		}
	})
	return out
}

// ParCounts builds the relation's hashed multiset with one sub-multiset per
// partition, populated concurrently. The result is partition-compatible with
// any PartView of the same partition count (same hash, same modulus).
func ParCounts(r *Relation, par Par) *TupleCounts {
	par = par.Norm()
	if !par.Enabled() || r.Len() < ParMinRows {
		tc := newTupleCountsParts(r.Len(), par.Partitions)
		for _, t := range r.rows {
			tc.Add(t, 1)
		}
		return tc
	}
	pv := r.PartView(par)
	tc := &TupleCounts{parts: make([]tcPart, par.Partitions)}
	ForParts(par.Partitions, par.Workers, func(p int) {
		rows := pv.Rows(p)
		part := tcPart{buckets: make(map[uint64][]tupleCount, len(rows))}
		for _, i := range rows {
			part.add(pv.Hash(int(i)), r.rows[i], 1)
		}
		tc.parts[p] = part
	})
	return tc
}

// ParSubtractAll is SubtractAll with partition-parallel matching: the
// removal multiset and the receiver are co-partitioned on the tuple hash, so
// partition p's removals match only partition p's rows, and the kept rows
// are compacted in original order — byte-identical to SubtractAll at any
// partition count.
func (r *Relation) ParSubtractAll(o *Relation, par Par) {
	par = par.Norm()
	if o.Len() == 0 {
		return
	}
	if !r.keepMaskOK() {
		r.SubtractAll(o)
		return
	}
	keep := r.parMinusKeep(o, par)
	pv := r.part.Load()
	cv := r.colv.Load()
	kept := r.rows[:0]
	for i, t := range r.rows {
		if keep[i] {
			kept = append(kept, t)
		}
	}
	r.rows = kept
	// Derive the compacted view from the keep mask instead of dropping it:
	// kept rows keep their relative order, so the new partitioning follows
	// by index arithmetic with no rehashing.
	r.part.Store(deriveKeptView(pv, keep))
	r.colv.Store(deriveKeptColView(cv, r.rows, keep))
}

// keepMaskOK decides whether subtract/minus takes the hash-carry keep-mask
// path: whenever a cached partition view exists or the input is large enough
// to seed one — reusing the hash column beats rehashing every kept row, and
// the derived view keeps the cross-version carry chain alive even at one
// partition.
func (r *Relation) keepMaskOK() bool {
	return r.part.Load() != nil || r.Len() >= ParMinRows
}

// ParMinusCOW is MinusCOW with partition-parallel matching; the inputs are
// left untouched and the kept rows land in a fresh relation in original
// order (byte-identical to MinusCOW at any partition count).
func ParMinusCOW(r, sub *Relation, par Par) *Relation {
	par = par.Norm()
	if sub.Len() == 0 || !r.keepMaskOK() {
		return MinusCOW(r, sub)
	}
	keep := r.parMinusKeep(sub, par)
	out := NewRelation(r.schema)
	out.rows = make([]algebra.Tuple, 0, r.Len())
	for i, t := range r.rows {
		if keep[i] {
			out.rows = append(out.rows, t)
		}
	}
	// Carry the partitioning to the new version (see ParSubtractAll): this
	// keeps the cross-epoch hash-carry chain alive through delete-merges,
	// so a COW refresh cycle (UnionCOW then ParMinusCOW) never rehashes the
	// stored result.
	out.part.Store(deriveKeptView(r.part.Load(), keep))
	out.colv.Store(deriveKeptColView(r.colv.Load(), out.rows, keep))
	return out
}

// deriveKeptView rebuilds a partition view after filtering by a keep mask:
// row i's new index is the number of kept rows before it, hashes compact in
// row order, and each partition's index list remaps in place order. Pure
// index arithmetic — no tuple is rehashed. A nil input view yields nil
// (rebuilt lazily on demand).
func deriveKeptView(pv *PartView, keep []bool) *PartView {
	if pv == nil {
		return nil
	}
	remap := make([]int32, len(keep))
	var n int32
	for i, k := range keep {
		remap[i] = n
		if k {
			n++
		}
	}
	out := &PartView{idx: make([][]int32, len(pv.idx)), hashes: make([]uint64, n)}
	for i, k := range keep {
		if k {
			out.hashes[remap[i]] = pv.hashes[i]
		}
	}
	for p, ids := range pv.idx {
		kept := make([]int32, 0, len(ids))
		for _, i := range ids {
			if keep[i] {
				kept = append(kept, remap[i])
			}
		}
		out.idx[p] = kept
	}
	return out
}

// parMinusKeep marks, per partition concurrently, which of r's rows survive
// removing each tuple of sub once. Workers touch disjoint keep indexes (a
// tuple's copies all share a partition), so the mask needs no locking.
// A cached view at a different partition count than the configuration is
// reused as-is (views are carried across partition settings);
// the removal multiset is then built at the view's count so residues match.
func (r *Relation) parMinusKeep(sub *Relation, par Par) []bool {
	pv := r.part.Load()
	if pv == nil {
		pv = r.PartView(par)
	}
	parts := pv.Parts()
	var remove *TupleCounts
	if parts == par.Partitions {
		remove = ParCounts(sub, par)
	} else {
		remove = newTupleCountsParts(sub.Len(), parts)
		for _, t := range sub.rows {
			remove.Add(t, 1)
		}
	}
	keep := make([]bool, len(r.rows))
	ForParts(parts, par.Workers, func(p int) {
		part := &remove.parts[p]
		for _, i := range pv.Rows(p) {
			if !part.remove(pv.Hash(int(i)), r.rows[i]) {
				keep[i] = true
			}
		}
	})
	return keep
}
