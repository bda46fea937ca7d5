package equivtest

// The row oracle: a sequential, row-at-a-time evaluator of DAG nodes that
// imports no engine code. These are the operators the executor ran before it
// had columnar kernels; they left production when the chained pipeline became
// the only engine and stay here as the reference every engine configuration
// must reproduce byte for byte.

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/storage"
)

// Eval computes a node's result from base relations only, following the
// natural (first) operation of each equivalence node — the same tree
// exec.Executor.EvalNode walks, so row order is comparable.
func Eval(db *storage.Database, e *dag.Equiv) *storage.Relation {
	op := e.Ops[0]
	child := func(i int) *storage.Relation { return Eval(db, op.Children[i]) }
	var out *storage.Relation
	switch op.Kind {
	case dag.OpScan:
		out = db.MustRelation(op.Table)
	case dag.OpSelect:
		out = filterRel(child(0), op.Pred)
	case dag.OpProject:
		out = child(0)
	case dag.OpJoin:
		out = hashJoin(child(0), child(1), op.Pred)
	case dag.OpAggregate:
		out = aggregate(child(0), op, e.Schema)
	case dag.OpUnion:
		out = unionAll(child(0), child(1))
	case dag.OpMinus:
		out = minus(child(0), child(1))
	case dag.OpDedup:
		out = dedup(child(0))
	default:
		panic("equivtest: unexpected op kind " + op.Kind.String())
	}
	return projectTo(out, e.Schema)
}

// filterRel applies a predicate, bound once against the input schema.
func filterRel(in *storage.Relation, pred algebra.Pred) *storage.Relation {
	out := storage.NewRelation(in.Schema())
	bp := pred.Bind(in.Schema())
	for _, t := range in.Rows() {
		if bp.Eval(t) {
			out.Append(t)
		}
	}
	return out
}

// projectTo reorders/subsets columns of in to match the target schema,
// resolving by qualified name. It panics if a target column is missing.
func projectTo(in *storage.Relation, target algebra.Schema) *storage.Relation {
	if schemaEqual(in.Schema(), target) {
		return in
	}
	idx := make([]int, len(target))
	for i, c := range target {
		j := in.Schema().IndexOf(c.QName())
		if j < 0 {
			panic("equivtest: column " + c.QName() + " missing from " + in.Schema().String())
		}
		idx[i] = j
	}
	out := storage.NewRelation(target)
	for _, t := range in.Rows() {
		row := make(algebra.Tuple, len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		out.Append(row)
	}
	return out
}

func schemaEqual(a, b algebra.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rel != b[i].Rel || a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// splitJoinPred separates equi-conjuncts usable as hash keys from residual
// conjuncts, given the two input schemas.
func splitJoinPred(pred algebra.Pred, ls, rs algebra.Schema) (lCols, rCols []int, residual []algebra.Cmp) {
	for _, c := range pred.Conjuncts {
		lc, lok := c.L.(algebra.ColRef)
		rc, rok := c.R.(algebra.ColRef)
		if c.Op == algebra.EQ && lok && rok {
			li, ri := ls.IndexOf(lc.QName()), rs.IndexOf(rc.QName())
			if li >= 0 && ri >= 0 {
				lCols = append(lCols, li)
				rCols = append(rCols, ri)
				continue
			}
			li, ri = ls.IndexOf(rc.QName()), rs.IndexOf(lc.QName())
			if li >= 0 && ri >= 0 {
				lCols = append(lCols, li)
				rCols = append(rCols, ri)
				continue
			}
		}
		residual = append(residual, c)
	}
	return
}

// hashJoin joins two relations under a conjunctive predicate, probing with
// column-subset hashes and confirming key equality on collision. The hash
// table is built on the smaller input (left on a tie) and probed with the
// larger, in probe order with build buckets in build order — the emission
// order that defines byte identity for joins; output rows always keep the
// l++r column layout. With no equi-conjunct it degrades to nested loops,
// outer side l.
func hashJoin(l, r *storage.Relation, pred algebra.Pred) *storage.Relation {
	ls, rs := l.Schema(), r.Schema()
	outSchema := ls.Concat(rs)
	out := storage.NewRelation(outSchema)
	lCols, rCols, residual := splitJoinPred(pred, ls, rs)
	hasResidual := len(residual) > 0 || pred.HasClauses()
	var res algebra.BoundPred
	if hasResidual {
		res = algebra.Pred{Conjuncts: residual, Clauses: pred.Clauses}.Bind(outSchema)
	}
	emit := func(lt, rt algebra.Tuple) {
		row := make(algebra.Tuple, 0, len(lt)+len(rt))
		row = append(append(row, lt...), rt...)
		if !hasResidual || res.Eval(row) {
			out.Append(row)
		}
	}
	if len(lCols) == 0 {
		for _, lt := range l.Rows() {
			for _, rt := range r.Rows() {
				emit(lt, rt)
			}
		}
		return out
	}
	build, bCols := l, lCols
	probe, pCols := r, rCols
	buildIsLeft := true
	if r.Len() < l.Len() {
		build, bCols = r, rCols
		probe, pCols = l, lCols
		buildIsLeft = false
	}
	buckets := make(map[uint64][]algebra.Tuple, build.Len())
	for _, bt := range build.Rows() {
		h := bt.HashCols(bCols)
		buckets[h] = append(buckets[h], bt)
	}
	for _, pt := range probe.Rows() {
		for _, bt := range buckets[pt.HashCols(pCols)] {
			if !algebra.EqualOn(pt, pCols, bt, bCols) {
				continue // hash collision across distinct keys
			}
			if buildIsLeft {
				emit(bt, pt)
			} else {
				emit(pt, bt)
			}
		}
	}
	return out
}

// unionAll concatenates two compatible relations (column order of the first).
func unionAll(l, r *storage.Relation) *storage.Relation {
	out := l.Clone()
	out.InsertAll(projectTo(r, l.Schema()))
	return out
}

// minus computes multiset difference l − r.
func minus(l, r *storage.Relation) *storage.Relation {
	out := l.Clone()
	out.SubtractAll(projectTo(r, l.Schema()))
	return out
}

// dedup eliminates duplicates via the typed tuple hash, confirming equality
// on collision; first occurrences survive in order.
func dedup(in *storage.Relation) *storage.Relation {
	out := storage.NewRelation(in.Schema())
	seen := make(map[uint64][]algebra.Tuple, in.Len())
	for _, t := range in.Rows() {
		h := t.Hash()
		bucket := seen[h]
		dup := false
		for _, prev := range bucket {
			if prev.Equal(t) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(bucket, t)
			out.Append(t)
		}
	}
	return out
}

// aggGroup is one group of the oracle's aggregation: the key values and one
// (sum, count, min, max) accumulator per aggregate spec.
type aggGroup struct {
	key           algebra.Tuple
	sum, min, max []float64
	cnt           []int64
}

// aggregate evaluates an aggregate operation from scratch, folding rows in
// input order (so float sums accumulate in the same order as the engine's
// per-group fold) and emitting groups in first-seen order. Column layout is
// the group-by columns followed by one value per spec: COUNT as Int, the
// others as Float, AVG of no rows as 0.
func aggregate(in *storage.Relation, op *dag.Op, out algebra.Schema) *storage.Relation {
	colOf := func(c algebra.ColRef) int {
		j := in.Schema().IndexOf(c.QName())
		if j < 0 {
			panic("equivtest: aggregate column " + c.QName() + " missing from " + in.Schema().String())
		}
		return j
	}
	groupBy := make([]int, len(op.GroupBy))
	for i, g := range op.GroupBy {
		groupBy[i] = colOf(g)
	}
	aggCols := make([]int, len(op.Aggs))
	for i, s := range op.Aggs {
		aggCols[i] = -1
		if s.Func != algebra.Count {
			aggCols[i] = colOf(s.Col)
		}
	}
	var groups []*aggGroup
	index := make(map[uint64][]*aggGroup)
	for _, t := range in.Rows() {
		h := t.HashCols(groupBy)
		var g *aggGroup
		for _, cand := range index[h] {
			match := true
			for i, j := range groupBy {
				if !cand.key[i].Equal(t[j]) {
					match = false
					break
				}
			}
			if match {
				g = cand
				break
			}
		}
		if g == nil {
			n := len(op.Aggs)
			g = &aggGroup{sum: make([]float64, n), min: make([]float64, n), max: make([]float64, n), cnt: make([]int64, n)}
			for _, j := range groupBy {
				g.key = append(g.key, t[j])
			}
			for i := range g.min {
				g.min[i], g.max[i] = math.Inf(1), math.Inf(-1)
			}
			index[h] = append(index[h], g)
			groups = append(groups, g)
		}
		for i := range op.Aggs {
			var v float64
			if aggCols[i] >= 0 {
				v = t[aggCols[i]].AsFloat()
			}
			g.sum[i] += v
			g.cnt[i]++
			if v < g.min[i] {
				g.min[i] = v
			}
			if v > g.max[i] {
				g.max[i] = v
			}
		}
	}
	res := storage.NewRelation(out)
	for _, g := range groups {
		row := append(algebra.Tuple(nil), g.key...)
		for i, s := range op.Aggs {
			switch s.Func {
			case algebra.Count:
				row = append(row, algebra.NewInt(g.cnt[i]))
			case algebra.Sum:
				row = append(row, algebra.NewFloat(g.sum[i]))
			case algebra.Avg:
				avg := 0.0
				if g.cnt[i] != 0 {
					avg = g.sum[i] / float64(g.cnt[i])
				}
				row = append(row, algebra.NewFloat(avg))
			case algebra.Min:
				row = append(row, algebra.NewFloat(g.min[i]))
			case algebra.Max:
				row = append(row, algebra.NewFloat(g.max[i]))
			}
		}
		res.Append(row)
	}
	return res
}
