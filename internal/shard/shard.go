// Package shard scales the engine across processes: a coordinator (the
// refresh writer, which keeps the full state and the shared AND-OR DAG)
// scatters served queries to worker shards that each own a contiguous range
// of the hash partitions of every stored relation, and gathers the partial
// results back in fixed partition order.
//
// # Ownership
//
// The unit of distribution is the storage.PartView hash partition (PR 5):
// every relation version exposes per-partition ascending row-index lists
// over the full-tuple hash. An Assignment fixes a partition count P and a
// shard count S; shard s owns the contiguous partition range
// MorselRanges(P, S)[s] of EVERY base relation and materialized result, as a
// Slice — the owned rows in ascending global row index plus those indexes.
// Because the partitioning is value-based (hash mod P) and the ranges tile
// [0, P) disjointly, each global row belongs to exactly one shard and the
// concatenation of all slices in shard order is a permutation of the
// relation with a known inverse (the index lists).
//
// # Scatter-gather and byte-identity
//
// A served plan is lowered (Lower) into a linear pipeline over one scatter
// leaf — the transitive probe side of its join tree, chosen by the same
// plan-estimate rule as the local executor (exec.BuildLeftFromPlan) — with
// every non-spine join input executed coordinator-side and broadcast inline
// when it is at or below the inline-build bound (exec.BroadcastMax).
// Each worker runs the pipeline over its slice only, tagging every output
// row with the global index of the scatter-leaf row it derives from (Ord);
// since filters and projections preserve derivation and a join's emissions
// are a function of the single probe row, merging the partials by ascending
// Ord reproduces the single-node row order exactly. Plans the lowering
// cannot express (aggregate/dedup/union/minus computes, oversized build
// sides) fall back to coordinator-local execution at the same epoch — a
// correctness-neutral slow path.
//
// # Two-phase epoch install
//
// Epoch publication is two-phase (Coordinator.Install): the coordinator
// pointer-diffs the previous staged snapshot against the new one (COW
// publication shares unchanged relation pointers, so the diff is exact),
// sends every shard its changed slices as a StageReq, and only after all
// shards have durably acknowledged staging epoch N does it flip the serving
// gate to N (an atomic store; Commit to the workers is advisory pruning).
// The happens-before argument mirrors the snapshot store's: every stage
// write — including each worker's log append and fsync — happens before the
// gate's release store, and a reader's acquire load of the gate therefore
// finds epoch N staged on every shard it scatters to. A reader never
// observes a partial epoch: until the flip, scatters run at the old gate
// against the old staged states, which staging N never mutates.
//
// Workers persist every StageReq to a stage log built on the wal package's
// CRC32C framing before acknowledging, so a SIGKILLed worker recovers its
// staged states by replay (torn tails truncate, exactly like the WAL) and
// reports its staged epoch in Hello; Coordinator.Rejoin then commits it
// directly, resends the one missed delta, or re-bootstraps it with a full
// Base stage, in that order of preference.
package shard

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// Assignment fixes the partition universe and its division into shards.
// Both sides of the transport must agree on it; Hello carries it for
// validation.
type Assignment struct {
	// Partitions is the hash-partition count P every relation is sliced at.
	Partitions int
	// Shards is the number of workers tiling [0, P).
	Shards int
}

// Norm clamps the assignment to at least one partition per shard.
func (a Assignment) Norm() Assignment {
	if a.Shards < 1 {
		a.Shards = 1
	}
	if a.Partitions < a.Shards {
		a.Partitions = a.Shards
	}
	return a
}

// Par is the storage partitioning configuration slices are derived with.
func (a Assignment) Par() storage.Par { return storage.Par{Partitions: a.Partitions} }

// Ranges returns each shard's contiguous partition range [lo, hi); the
// ranges tile [0, Partitions) disjointly in shard order.
func (a Assignment) Ranges() [][2]int {
	a = a.Norm()
	return storage.MorselRanges(a.Partitions, a.Shards)
}

// Slice is one shard's image of one relation: the owned rows in ascending
// global row index, plus those indexes (the merge key for gathers and the
// carrier of the partition-order contract).
//
// HashCols/Hashes optionally ship the coordinator's already-built key-hash
// columns alongside the rows, gathered down to the slice: Hashes[k][i] ==
// Rows[i].HashCols(HashCols[k]). Workers seed their per-state hash cache
// from them instead of paying a build pass per (leaf, key set) on first
// probe. The fields are advisory — a worker validates lengths before
// adopting and falls back to building, so malformed wire input degrades to
// the old behavior rather than corrupting joins.
type Slice struct {
	Rows []algebra.Tuple
	Idx  []int32

	HashCols [][]int
	Hashes   [][]uint64
}

// SliceOf extracts the slice of rel owned by the partition range [lo, hi)
// under the assignment's partitioning. The per-partition index lists are
// each ascending; their union is sorted once so the slice is ascending in
// global row index. Every key-hash column already cached on the relation's
// ColView (warmed by the coordinator's own joins and aggregations over this
// version) is gathered through the same indexes and shipped, so workers
// never rebuild hashes the coordinator has already paid for.
func SliceOf(rel *storage.Relation, a Assignment, lo, hi int) Slice {
	pv := rel.PartView(a.Par())
	total := 0
	for p := lo; p < hi; p++ {
		total += len(pv.Rows(p))
	}
	idx := make([]int32, 0, total)
	for p := lo; p < hi; p++ {
		idx = append(idx, pv.Rows(p)...)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	rows := rel.Rows()
	out := Slice{Rows: make([]algebra.Tuple, len(idx)), Idx: idx}
	for i, j := range idx {
		out.Rows[i] = rows[j]
	}
	cols, hashes := rel.ColView().CachedKeys()
	for k := range cols {
		if len(hashes[k]) != len(rows) {
			continue
		}
		h := make([]uint64, len(idx))
		for i, j := range idx {
			h[i] = hashes[k][j]
		}
		out.HashCols = append(out.HashCols, cols[k])
		out.Hashes = append(out.Hashes, h)
	}
	return out
}
