package storage

// Hash-partitioned storage: the shard layer's slicing unit and the merges'
// hash carrier.
//
// Every relation version can expose a PartView: a hash partitioning of its
// rows on the typed tuple hash (algebra.Tuple.Hash), represented as per-
// partition ascending row-index slices plus the per-row hash array. The view
// is built lazily, cached on the relation version through an atomic pointer
// (so any number of snapshot readers may request it concurrently), carried
// across the refresh merges (merge.go: extended on insert-merge, left alone
// by a delete's marks, compacted with the relation, never rehashed) and
// dropped by any other in-place mutation.
//
// The partitioning is on the full tuple hash, so every occurrence of a given
// tuple value lands in the same partition. Operations whose state is keyed
// by whole tuples therefore decompose into independent per-partition problems
// with no cross-partition communication: the shard layer slices relations
// this way, and it is the only reader of the partition lists. The view is
// indexed by ordinal and covers a version's dead rows too (a delete only
// marks them); its readers skip them through Relation.Live. The delete-merge
// needs only the hash array, through the tuple index built over it
// (index.go). Operators run sequentially; the concurrency inside one process
// is the refresh scheduler's task pool, concurrent snapshot readers and the
// shard fleet.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
)

// Par configures a PartView: Partitions is its hash-partition count, Workers
// bounds the goroutines that hash the rows while building it. The zero value
// is one partition.
type Par struct {
	// Partitions is the number of hash partitions (<=1: one).
	Partitions int
	// Workers bounds the hashing goroutines (<=0: one per partition, capped
	// at runtime.GOMAXPROCS(0)).
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

// ParMinRows is the relation size below which buildPartView hashes on one
// goroutine. A variable so tests can build small views on several.
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
// partition, the ascending row ordinals whose tuple hash falls in it, plus
// the per-row hash array (so consumers never rehash), and the tuple index
// over that array, built on a delete-merge's first use. A published version's
// view is immutable; the arrays may have spare capacity that a later version
// writes (merge.go), which is why the accessors clip what they hand out.
type PartView struct {
	idx    [][]int32
	hashes []uint64
	ix     atomic.Pointer[tupleIndex]
}

// Parts returns the partition count.
func (pv *PartView) Parts() int { return len(pv.idx) }

// Rows returns partition p's ascending row ordinals, those of dead rows
// included. Callers must not mutate the slice.
func (pv *PartView) Rows(p int) []int32 { return clip(pv.idx[p]) }

// Hash returns row i's full tuple hash.
func (pv *PartView) Hash(i int) uint64 { return pv.hashes[i] }

// PartView returns (building and caching on first use) the relation's hash
// partitioning at par.Partitions partitions. Safe to call from any number of
// goroutines on a published (immutable) relation version: the cache is an
// atomic pointer and concurrent builders converge on identical views. A
// cached view at a different partition count is rescattered from its hash
// column, and keeps its tuple index.
func (r *Relation) PartView(par Par) *PartView {
	par = par.Norm()
	old := r.part.Load()
	if old != nil && len(old.idx) == par.Partitions {
		return old
	}
	var pv *PartView
	if old != nil {
		pv = &PartView{idx: ScatterByHash(old.hashes, par.Partitions), hashes: old.hashes}
		pv.ix.Store(old.ix.Load())
	} else {
		pv = buildPartView(r.rows, par)
	}
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
// exactly, one fill pass scatters. PartView builds its partition lists with
// it.
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

// invalidate drops the cached partition and column views and the live
// gathers after an in-place mutation that does not carry them. Only the
// single writer mutates a relation, so a plain load-then-store is enough;
// published versions are never mutated (the COW contract).
func (r *Relation) invalidate() {
	r.dropLive()
	if r.part.Load() != nil {
		r.part.Store(nil)
	}
	if r.colv.Load() != nil {
		r.colv.Store(nil)
	}
}
