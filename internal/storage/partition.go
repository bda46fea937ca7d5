package storage

// Hash-partitioned storage and the shared partition-parallel configuration.
//
// Every relation version can expose a PartView: a hash partitioning of its
// rows on the typed tuple hash (algebra.Tuple.Hash), represented as per-
// partition ascending row-index slices plus the per-row hash array. The view
// is built lazily, cached on the relation version through an atomic pointer
// (so any number of snapshot readers may request it concurrently), carried
// across the refresh merges (merge.go: extended on insert-merge, compacted on
// delete-merge, never rehashed) and dropped by any other in-place mutation.
//
// The partitioning is on the full tuple hash, so every occurrence of a given
// tuple value lands in the same partition. Operations whose state is keyed
// by whole tuples therefore decompose into independent per-partition problems
// with no cross-partition communication (the shard layer slices relations
// this way). The delete-merge needs only the hash array: it scans it behind
// the removal set's filter (merge.go).

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
// the per-row hash array (so consumers never rehash). A published version's
// view is immutable; the arrays may have spare capacity that a later version
// writes (merge.go), which is why the accessors clip what they hand out.
type PartView struct {
	idx    [][]int32
	hashes []uint64
}

// Parts returns the partition count.
func (pv *PartView) Parts() int { return len(pv.idx) }

// Rows returns partition p's ascending row indexes. Callers must not mutate
// the slice.
func (pv *PartView) Rows(p int) []int32 { return clip(pv.idx[p]) }

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
// mutation that does not carry them. Only the single writer mutates a
// relation, so a plain load-then-store is enough; published versions are
// never mutated (the COW contract).
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
