package exec

// Row-side helpers the engine keeps: morsel fan-out, the projection that
// re-expresses a row relation in another schema (differential merges, stored
// reads) and the nested loop behind joins with no equi-conjunct.
//
// Morsel (range) partitioning splits the input into contiguous ranges,
// workers claim ranges off an atomic counter, and the per-range outputs
// concatenate in range order — reproducing the sequential output at ANY
// partition and worker count. Below storage.ParMinRows rows, or when the
// configuration is sequential, there is one range and it runs on the caller.

import (
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// broadcastMaxBuild is the inline build-side bound BroadcastMax exports to the
// shard coordinator: a table this small is microseconds of serial work to
// build and fits cache, so every worker building its own copy costs less than
// partitioning the build side would.
const broadcastMaxBuild = 8192

// forRanges runs body over every morsel range on par.Workers goroutines,
// ranges claimed off an atomic counter.
func forRanges(ranges [][2]int, workers int, body func(ri, lo, hi int)) {
	if workers > len(ranges) {
		workers = len(ranges)
	}
	var next atomic.Int64
	storage.RunWorkers(workers, func(int) {
		for {
			ri := int(next.Add(1)) - 1
			if ri >= len(ranges) {
				return
			}
			body(ri, ranges[ri][0], ranges[ri][1])
		}
	})
}

// concatRanges assembles per-range outputs into one relation, in range
// order.
func concatRanges(schema algebra.Schema, outs [][]algebra.Tuple) *storage.Relation {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := storage.NewRelation(schema)
	out.Reserve(total)
	for _, o := range outs {
		out.AppendAll(o)
	}
	return out
}

// projIndexes resolves the target schema's columns in the input schema.
func projIndexes(in algebra.Schema, target algebra.Schema) []int {
	idx := make([]int, len(target))
	for i, c := range target {
		j := in.IndexOf(c.QName())
		if j < 0 {
			panic("exec: column " + c.QName() + " missing from " + in.String())
		}
		idx[i] = j
	}
	return idx
}

// projectToP reorders/subsets columns of in to match the target schema,
// resolving by qualified name (identical schemas return in itself), with
// morsel-parallel column movement above storage.ParMinRows rows. It panics if
// a target column is missing.
func projectToP(in *storage.Relation, target algebra.Schema, par storage.Par) *storage.Relation {
	if schemaEqual(in.Schema(), target) {
		return in
	}
	idx := projIndexes(in.Schema(), target)
	project := func(arena *tupleArena, t algebra.Tuple) algebra.Tuple {
		row := arena.alloc(len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		return row
	}
	rows := in.Rows()
	par = par.Norm()
	if !par.Enabled() || len(rows) < storage.ParMinRows {
		out := storage.NewRelation(target)
		out.Reserve(len(rows))
		var arena tupleArena
		for _, t := range rows {
			out.Append(project(&arena, t))
		}
		return out
	}
	ranges := storage.MorselRanges(len(rows), par.Partitions)
	outs := make([][]algebra.Tuple, len(ranges))
	forRanges(ranges, par.Workers, func(ri, lo, hi int) {
		var arena tupleArena
		acc := make([]algebra.Tuple, 0, hi-lo)
		for _, t := range rows[lo:hi] {
			acc = append(acc, project(&arena, t))
		}
		outs[ri] = acc
	})
	return concatRanges(target, outs)
}

// nestedLoop joins two row relations under a predicate with no equi-conjunct
// usable as a hash key: morsel-parallel over the outer input l, full inner r
// per range, rows in the l++r layout, concatenated in range order (so the
// output is the sequential nested loop's at any partition count).
func nestedLoop(l, r *storage.Relation, pred algebra.Pred, par storage.Par) *storage.Relation {
	par = par.Norm()
	outSchema := l.Schema().Concat(r.Schema())
	res := pred.Bind(outSchema) // read-only once bound: shared by workers
	lRows, rRows := l.Rows(), r.Rows()
	parts := 1
	if par.Enabled() && len(lRows)+len(rRows) >= storage.ParMinRows {
		parts = par.Partitions
	}
	ranges := storage.MorselRanges(len(lRows), parts)
	outs := make([][]algebra.Tuple, len(ranges))
	forRanges(ranges, par.Workers, func(ri, lo, hi int) {
		var arena tupleArena
		var acc []algebra.Tuple
		for _, lt := range lRows[lo:hi] {
			for _, rt := range rRows {
				row := arena.alloc(len(lt) + len(rt))
				copy(row, lt)
				copy(row[len(lt):], rt)
				if !res.Eval(row) {
					arena.undo(len(row))
					continue
				}
				acc = append(acc, row)
			}
		}
		outs[ri] = acc
	})
	return concatRanges(outSchema, outs)
}
