package exec

// Row-side helpers the engine keeps: the projection that re-expresses a row
// relation in another schema (differential merges, stored reads) and the
// nested loop behind joins with no equi-conjunct.

import (
	"repro/internal/algebra"
	"repro/internal/storage"
)

// broadcastMaxBuild is the inline build-side bound BroadcastMax exports to the
// shard coordinator: a table this small is microseconds of serial work to
// build and fits cache, so every worker building its own copy costs less than
// partitioning the build side would.
const broadcastMaxBuild = 8192

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

// projectTo reorders/subsets columns of in to match the target schema,
// resolving by qualified name (identical schemas return in itself). It panics
// if a target column is missing.
func projectTo(in *storage.Relation, target algebra.Schema) *storage.Relation {
	if schemaEqual(in.Schema(), target) {
		return in
	}
	idx := projIndexes(in.Schema(), target)
	rows := in.Rows()
	out := storage.NewRelation(target)
	out.Reserve(len(rows))
	var arena tupleArena
	for _, t := range rows {
		row := arena.alloc(len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		out.Append(row)
	}
	return out
}

// nestedLoop joins two row relations under a predicate with no equi-conjunct
// usable as a hash key: the full inner r per outer row of l, rows in the
// l++r layout, in outer-then-inner order.
func nestedLoop(l, r *storage.Relation, pred algebra.Pred) *storage.Relation {
	outSchema := l.Schema().Concat(r.Schema())
	res := pred.Bind(outSchema)
	var arena tupleArena
	var acc []algebra.Tuple
	for _, lt := range l.Rows() {
		for _, rt := range r.Rows() {
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
	out := storage.NewRelation(outSchema)
	out.Reserve(len(acc))
	out.AppendAll(acc)
	return out
}
