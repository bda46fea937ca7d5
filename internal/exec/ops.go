// Package exec is the in-memory execution engine: it interprets the physical
// plans produced by the volcano and diff optimizers against storage
// relations, and drives incremental view refresh (compute differentials one
// update at a time, merge them into stored results, fold deltas into base
// relations — the procedure of paper §3.2.2). Within each update step the
// differential computations are scheduled as a dependency task graph on a
// GOMAXPROCS-bounded worker pool, with optimizer-shared differentials
// computed exactly once (schedule.go); results are identical at any worker
// count.
//
// There is one operator engine and two walkers. planBatch walks every
// optimizer plan: queries, full inputs and differential plans, which
// diff.DiffPlan.Plan lowers to volcano plans with delta and shared leaves;
// Executor.EvalNode walks a node's natural operation for recomputation. Both
// resolve their leaves and children to columnar batches (Batch,
// pipeline.go), apply the one per-operator arm (applyOp) and gather rows
// once, at the sink. Every operator runs sequentially on its caller's
// goroutine; the refresh scheduler's task pool runs independent
// differentials side by side. The reference the tests compare against is a
// separate row-at-a-time evaluator that shares no code with this package
// (internal/exec/equivtest).
//
// The paper's authors had no execution engine and reported estimated costs
// only (§7.1). This package exists so that maintenance plans can be executed
// and checked for exact multiset equality with recomputation.
package exec

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// tupleArena amortizes output-row allocation on executor hot paths: rows are
// carved out of shared blocks instead of one make per row. Blocks grow
// geometrically from the first row's exact size (capped at 8192 values), so
// a tiny differential result does not pin a large block — carved rows escape
// into retained relations and keep their whole block reachable. Only the
// most recent row may be returned with undo.
type tupleArena struct {
	buf  []algebra.Value
	next int // capacity of the next block
}

// alloc carves a row of n values. The region may hold stale values from an
// undone row — callers must write every slot.
func (a *tupleArena) alloc(n int) algebra.Tuple {
	if cap(a.buf)-len(a.buf) < n {
		sz := a.next
		if sz < n {
			sz = n
		}
		a.buf = make([]algebra.Value, 0, sz)
		a.next = 2 * sz
		if a.next > 8192 {
			a.next = 8192
		}
	}
	row := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return row
}

// undo releases the most recent alloc(n) (used when a row fails a residual
// predicate and never escapes).
func (a *tupleArena) undo(n int) {
	a.buf = a.buf[:len(a.buf)-n]
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

// ---------------------------------------------------------------------------
// Aggregation with mergeable per-group state.

// aggAcc is the accumulator for one aggregate spec within one group. Sum,
// count and avg are distributive and merge under deletion; min/max are exact
// under insertion only (the maintainer falls back to recomputation when a
// deletion could invalidate them — see Maintainer).
type aggAcc struct {
	sum float64
	cnt int64
	min float64
	max float64
}

// groupState is the state of one group: group key values plus one
// accumulator per aggregate spec and the group's total row count.
type groupState struct {
	keyVals algebra.Tuple
	accs    []aggAcc
	rows    int64
}

// AggTable is mergeable aggregation state: the authoritative representation
// of a materialized aggregate view. Groups are keyed by the typed hash of
// the group-by columns; the rare hash collision chains distinct key tuples
// within one bucket, disambiguated by value equality.
type AggTable struct {
	groupBy []int // input column indexes
	aggCols []int // input column indexes per spec (-1 for COUNT)
	specs   []algebra.AggSpec
	out     algebra.Schema
	groups  map[uint64][]*groupState
	n       int // live group count
}

// NewAggTable builds empty aggregation state for an aggregate operation over
// an input schema, producing the output schema out.
func NewAggTable(in algebra.Schema, groupBy []algebra.ColRef, specs []algebra.AggSpec, out algebra.Schema) *AggTable {
	return NewAggTableSized(in, groupBy, specs, out, 0)
}

// NewAggTableSized is NewAggTable with the group map pre-sized for about
// hint groups. Materialization passes the optimizer's catalog-derived
// cardinality estimate here, so bulk loads do not rehash the map as groups
// accumulate.
func NewAggTableSized(in algebra.Schema, groupBy []algebra.ColRef, specs []algebra.AggSpec, out algebra.Schema, hint int) *AggTable {
	if hint < 0 {
		hint = 0
	}
	at := &AggTable{specs: specs, out: out, groups: make(map[uint64][]*groupState, hint)}
	for _, g := range groupBy {
		j := in.IndexOf(g.QName())
		if j < 0 {
			panic(fmt.Sprintf("exec: group-by column %s missing from %s", g.QName(), in))
		}
		at.groupBy = append(at.groupBy, j)
	}
	for _, s := range specs {
		if s.Func == algebra.Count {
			at.aggCols = append(at.aggCols, -1)
			continue
		}
		j := in.IndexOf(s.Col.QName())
		if j < 0 {
			panic(fmt.Sprintf("exec: aggregate column %s missing from %s", s.Col.QName(), in))
		}
		at.aggCols = append(at.aggCols, j)
	}
	return at
}

// Absorb folds input tuples into the state with the given sign (+1 for
// inserts, −1 for deletes). It reports whether any MIN/MAX accumulator may
// have been invalidated (a deletion matching the current extremum).
func (at *AggTable) Absorb(in *storage.Relation, sign int64) (minMaxDirty bool) {
	return at.absorb(batchOf(in), sign)
}

// absorb folds a batch into the state straight from column slices — no row
// tuple is ever built. It is the one fold: chainBuildAgg builds state
// through it, and Absorb merges refresh deltas through it.
func (at *AggTable) absorb(in *Batch, sign int64) (minMaxDirty bool) {
	if in.n == 0 {
		return false
	}
	gh := in.keyHashes(at.groupBy)
	keys := make([][]algebra.Value, len(at.groupBy))
	for k, c := range at.groupBy {
		keys[k] = in.column(c)
	}
	aggs := make([][]algebra.Value, len(at.aggCols))
	for s, c := range at.aggCols {
		if c >= 0 {
			aggs[s] = in.column(c)
		}
	}
	for i := 0; i < in.n; i++ {
		if at.absorbColsOne(gh.at(i), i, keys, aggs, sign) {
			minMaxDirty = true
		}
	}
	return minMaxDirty
}

// absorbColsOne folds logical row i of a column-major input, whose group-key
// hash is h, into the state: keys[k][i] is the k-th group-by column and
// aggs[s][i] the s-th spec's source column (nil for COUNT).
func (at *AggTable) absorbColsOne(h uint64, i int, keys, aggs [][]algebra.Value, sign int64) (minMaxDirty bool) {
	chain := at.groups[h]
	var g *groupState
	gi := -1
	for ci, cand := range chain {
		if cand.keyMatchesCols(keys, i) {
			g, gi = cand, ci
			break
		}
	}
	if g == nil {
		g = &groupState{accs: make([]aggAcc, len(at.specs))}
		g.keyVals = make(algebra.Tuple, len(keys))
		for k := range keys {
			g.keyVals[k] = keys[k][i]
		}
		for s := range g.accs {
			g.accs[s].min = math.Inf(1)
			g.accs[s].max = math.Inf(-1)
		}
		at.groups[h] = append(chain, g)
		gi = len(chain)
		at.n++
	}
	g.rows += sign
	for s, spec := range at.specs {
		acc := &g.accs[s]
		var v float64
		if aggs[s] != nil {
			v = aggs[s][i].AsFloat()
		}
		switch spec.Func {
		case algebra.Count:
			acc.cnt += sign
		case algebra.Sum, algebra.Avg:
			acc.sum += float64(sign) * v
			acc.cnt += sign
		case algebra.Min:
			if sign > 0 {
				if v < acc.min {
					acc.min = v
				}
			} else if v <= acc.min {
				minMaxDirty = true
			}
			acc.cnt += sign
		case algebra.Max:
			if sign > 0 {
				if v > acc.max {
					acc.max = v
				}
			} else if v >= acc.max {
				minMaxDirty = true
			}
			acc.cnt += sign
		}
	}
	if g.rows <= 0 {
		chain := at.groups[h]
		chain[gi] = chain[len(chain)-1]
		chain = chain[:len(chain)-1]
		if len(chain) == 0 {
			delete(at.groups, h)
		} else {
			at.groups[h] = chain
		}
		at.n--
	}
	return minMaxDirty
}

// keyMatchesCols reports whether the group's key equals the group-by columns
// at logical row i of a column-major input.
func (g *groupState) keyMatchesCols(keys [][]algebra.Value, i int) bool {
	for k := range keys {
		if !g.keyVals[k].Equal(keys[k][i]) {
			return false
		}
	}
	return true
}

// Rows materializes the current state as a relation in the output schema.
func (at *AggTable) Rows() *storage.Relation {
	out := storage.NewRelation(at.out)
	out.Reserve(at.n)
	var arena tupleArena
	width := len(at.out)
	for _, chain := range at.groups {
		for _, g := range chain {
			row := arena.alloc(width)[:0]
			row = append(row, g.keyVals...)
			for i, s := range at.specs {
				acc := g.accs[i]
				switch s.Func {
				case algebra.Count:
					row = append(row, algebra.NewInt(acc.cnt))
				case algebra.Sum:
					row = append(row, algebra.NewFloat(acc.sum))
				case algebra.Avg:
					if acc.cnt == 0 {
						row = append(row, algebra.NewFloat(0))
					} else {
						row = append(row, algebra.NewFloat(acc.sum/float64(acc.cnt)))
					}
				case algebra.Min:
					row = append(row, algebra.NewFloat(acc.min))
				case algebra.Max:
					row = append(row, algebra.NewFloat(acc.max))
				}
			}
			out.Append(row)
		}
	}
	return out
}
