// Package greedy implements the paper's greedy heuristic for selecting
// extra results to materialize (§6): full results (temporarily during
// refresh, or permanently with incremental maintenance), differential
// results (always temporary), and indexes on stored results. It includes
// both optimizations the paper adopts from [RSSB00]:
//
//   - incremental cost update: benefits are evaluated on a forked Eval that
//     re-costs only ancestors of the candidate (diff.Eval.Fork);
//   - monotonicity: benefits are kept in a lazy max-heap and recomputed only
//     when a stale entry surfaces, on the assumption that benefits do not
//     grow as more results are materialized.
package greedy

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/volcano"
)

// Config tunes the candidate set and the stopping rule.
type Config struct {
	// IncludeDiffs admits differential results as candidates. (The paper's
	// own implementation had this restriction: "it only considers full
	// results for materialization"; enabling it implements the full design.)
	IncludeDiffs bool
	// IncludeIndexes admits index candidates on stored results.
	IncludeIndexes bool
	// MaxChoices caps the number of picks (0 = unlimited).
	MaxChoices int
	// SpaceBudget, when positive, limits the total bytes of permanently and
	// temporarily materialized extras; candidates are then ranked by benefit
	// per unit space (paper §6.2 end).
	SpaceBudget float64
	// MinBenefit is the stopping threshold (paper: stop at benefit < 0).
	MinBenefit float64
	// DisableMonotonicity turns off the lazy-heap benefit caching (§6.2
	// optimization 2) and recomputes every candidate's benefit each
	// iteration. For ablation studies; results are identical, only slower
	// (up to tie-breaking among equal benefits).
	DisableMonotonicity bool
	// DisableIncremental turns off the incremental cost update (§6.2
	// optimization 1): every benefit evaluation costs the whole DAG from
	// scratch instead of only the candidate's ancestors. For ablation
	// studies; results are identical, only slower.
	DisableIncremental bool
	// Workers bounds the worker pool for concurrent benefit evaluation (the
	// initial heap fill, and every sweep of the naive ablation path). 0 uses
	// runtime.GOMAXPROCS(0); 1 forces serial evaluation. Results are
	// identical at any setting: each candidate's benefit is computed on its
	// own forked Eval against the immutable engine, and results are merged
	// in candidate order.
	Workers int
}

// DefaultConfig enables everything, unbounded.
func DefaultConfig() Config {
	return Config{IncludeDiffs: true, IncludeIndexes: true}
}

// Decision records one materialization pick.
type Decision struct {
	// Change is the picked materialization (full result, differential, or
	// index).
	Change diff.Change
	// Benefit is the refresh-cost reduction of the pick at the time it was
	// made, in cost-model seconds.
	Benefit float64
	// Bytes is the estimated storage footprint.
	Bytes float64
	// Permanent marks full results whose incremental maintenance is cheaper
	// than recomputation (they are kept and maintained with the views);
	// temporary results are recomputed during refresh and discarded.
	// Differentials are always temporary; indexes always permanent.
	Permanent bool
	// Desc is a human-readable description.
	Desc string
}

// Result is the outcome of a greedy run.
type Result struct {
	// State is the final materialization state (views plus every pick).
	State *diff.MatState
	// Eval is the evaluation context of the final state; plans read from it
	// are the ones the refresh executor runs.
	Eval *diff.Eval
	// Chosen lists the picks in descending benefit order.
	Chosen []Decision
	// InitialCost and FinalCost are the total refresh costs before and after
	// selection (the paper's cost(M, M) totals).
	InitialCost, FinalCost float64
	// BenefitCalls counts benefit evaluations (instrumentation showing the
	// effect of the monotonicity optimization).
	BenefitCalls int
	// CandidateCount is the size of the initial candidate set.
	CandidateCount int
}

// item is a heap entry.
type item struct {
	change  diff.Change
	benefit float64 // heap key: raw benefit, or benefit per byte when budgeted
	raw     float64 // raw benefit in seconds
	epoch   int     // pick epoch at which benefit was computed
	bytes   float64
	index   int
}

// maxHeap orders items by descending benefit (container/heap.Interface).
type maxHeap []*item

// Len reports the number of items.
func (h maxHeap) Len() int { return len(h) }

// Less orders greater benefits first (max-heap).
func (h maxHeap) Less(i, j int) bool { return h[i].benefit > h[j].benefit }

// Swap exchanges two items, maintaining their heap indexes.
func (h maxHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }

// Push appends an item (called by container/heap).
func (h *maxHeap) Push(x interface{}) { it := x.(*item); it.index = len(*h); *h = append(*h, it) }

// Pop removes and returns the last item (called by container/heap).
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// WeightedQuery is a read-only workload element: its root is evaluated
// Weight times per refresh cycle and benefits from whatever is materialized.
// This implements the paper's closing extension ("choose extra temporary and
// permanent views in order to speed up a workload containing queries and
// updates").
type WeightedQuery struct {
	// Root is the query's equivalence node in the shared DAG.
	Root *dag.Equiv
	// Weight is the number of executions per refresh cycle.
	Weight float64
}

// Selector runs the greedy algorithm for one engine and view set.
type Selector struct {
	// En is the differential costing engine (immutable during a run).
	En *diff.Engine
	// Views are the roots whose refresh cost is minimized.
	Views []*dag.Equiv
	// Queries are optional weighted read-only workload elements.
	Queries []WeightedQuery
	// Cfg tunes candidates, stopping, and concurrency.
	Cfg Config
}

// New builds a selector.
func New(en *diff.Engine, views []*dag.Equiv, cfg Config) *Selector {
	return &Selector{En: en, Views: views, Cfg: cfg}
}

// chosenSet tracks what is being costed in the paper's cost(M, M) total.
type chosenSet struct {
	fulls   []int // equiv IDs: views first, then chosen extras
	diffs   []diff.DiffKey
	indexes []volcano.IndexKey
}

// totalCost is the paper's cost(S, M): the refresh cost of every chosen
// result under the evaluation state.
func (s *Selector) totalCost(ev *diff.Eval, set *chosenSet) float64 {
	en := s.En
	total := 0.0
	for _, id := range set.fulls {
		e := en.D.Equivs[id]
		recompute := ev.ComputeCost(e) + en.Model.WriteCost(en.FinalRows(e), dag.Width(e))
		maintain := ev.MaintCost(e)
		total += math.Min(recompute, maintain)
	}
	for _, k := range set.diffs {
		e := en.D.Equivs[k.EquivID]
		p := ev.DiffPlan(e, k.Update)
		total += p.Cost + en.Model.WriteCost(p.Rows, dag.Width(e))
	}
	for _, ik := range set.indexes {
		e := en.D.Equivs[ik.EquivID]
		deltaRows := 0.0
		for i := 1; i <= en.U.N(); i++ {
			deltaRows += en.DeltaRows(e, i)
		}
		total += en.Model.IndexMaintCost(deltaRows)
	}
	for _, q := range s.Queries {
		total += q.Weight * ev.FullPlanAt(q.Root, en.FinalState()).CumCost
	}
	return total
}

// bytesOf estimates the storage footprint of a candidate. It is called once
// per candidate per Run and cached on the heap item; FinalRows/DeltaRows
// behind it are memoized by the engine.
func (s *Selector) bytesOf(c diff.Change) float64 {
	en := s.En
	e := en.D.Equivs[c.EquivID]
	switch c.Kind {
	case diff.ChangeFull:
		return en.FinalRows(e) * float64(dag.Width(e))
	case diff.ChangeDiff:
		return en.DeltaRows(e, c.Update) * float64(dag.Width(e))
	default:
		return en.FinalRows(e) * 12
	}
}

// describe renders a candidate.
func (s *Selector) describe(c diff.Change) string {
	e := s.En.D.Equivs[c.EquivID]
	switch c.Kind {
	case diff.ChangeFull:
		return fmt.Sprintf("full e%d %v", e.ID, e.Tables)
	case diff.ChangeDiff:
		kind := "δ+"
		if !s.En.U.IsInsert(c.Update) {
			kind = "δ−"
		}
		return fmt.Sprintf("%s%s of e%d %v", kind, s.En.U.Table(c.Update), e.ID, e.Tables)
	default:
		return fmt.Sprintf("index on e%d(%s)", e.ID, c.Col)
	}
}

// candidates enumerates the initial candidate set Y (paper Fig. 2):
// every non-leaf equivalence node's full result, every non-empty
// differential, and index candidates on join columns of stored (or
// materializable) inputs plus on the views themselves for merging.
func (s *Selector) candidates(initial *diff.MatState) []diff.Change {
	en := s.En
	var out []diff.Change
	isView := map[int]bool{}
	for _, v := range s.Views {
		isView[v.ID] = true
	}
	for _, e := range en.D.Equivs {
		if e.IsTable {
			continue
		}
		// Results already in the initial state (views, or kept seeds of a
		// warm-started run) are not candidates again.
		if !isView[e.ID] && !initial.Fulls.Full[e.ID] {
			out = append(out, diff.Change{Kind: diff.ChangeFull, EquivID: e.ID})
		}
		if s.Cfg.IncludeDiffs {
			for i := 1; i <= en.U.N(); i++ {
				if en.DeltaRows(e, i) > 0 && !initial.Diffs[diff.DiffKey{EquivID: e.ID, Update: i}] {
					out = append(out, diff.Change{Kind: diff.ChangeDiff, EquivID: e.ID, Update: i})
				}
			}
		}
	}
	if s.Cfg.IncludeIndexes {
		seen := map[volcano.IndexKey]bool{}
		addIx := func(id int, col string) {
			k := volcano.IndexKey{EquivID: id, Col: col}
			if !seen[k] && !initial.Fulls.Indexes[k] {
				seen[k] = true
				out = append(out, diff.Change{Kind: diff.ChangeIndex, EquivID: id, Col: col})
			}
		}
		for _, e := range en.D.Equivs {
			for _, op := range e.Ops {
				if op.Kind != dag.OpJoin {
					continue
				}
				for _, c := range op.Pred.Conjuncts {
					if c.Op != algebra.EQ {
						continue
					}
					for _, side := range []algebra.Expr{c.L, c.R} {
						cr, ok := side.(algebra.ColRef)
						if !ok {
							continue
						}
						for _, child := range op.Children {
							if child.Schema.Has(cr.QName()) {
								// Skip base-table indexes already in the catalog.
								if child.IsTable && en.D.Cat.HasIndex(child.Tables[0], cr.Name) {
									continue
								}
								addIx(child.ID, cr.QName())
							}
						}
					}
				}
			}
		}
		// Merge-assisting index on each view (first schema column).
		for _, v := range s.Views {
			if len(v.Schema) > 0 {
				addIx(v.ID, v.Schema[0].QName())
			}
		}
	}
	return out
}

// evalConcurrently runs eval(i) for every i in [0, n) on a worker pool
// bounded by Cfg.Workers (default runtime.GOMAXPROCS(0)). Each index is
// processed exactly once and writes only its own slot, so callers merge
// results by index — deterministic regardless of scheduling.
func (s *Selector) evalConcurrently(n int, eval func(int)) {
	workers := s.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			eval(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
}

// Run executes the greedy selection and returns the chosen set, the final
// evaluation state, and instrumentation.
func (s *Selector) Run() *Result {
	en := s.En
	ms := diff.NewMatState()
	set := &chosenSet{}
	for _, v := range s.Views {
		ms.Fulls.Full[v.ID] = true
		set.fulls = append(set.fulls, v.ID)
	}
	ev := en.NewEval(ms)
	cur := s.totalCost(ev, set)
	res := &Result{State: ms, InitialCost: cur}

	// evalAfter applies a change hypothetically (or for real). With the
	// incremental cost update it forks the current Eval, carrying over every
	// memoized plan outside the candidate's ancestor set; the ablation path
	// rebuilds an Eval from scratch. Safe to call concurrently: it only
	// reads ev and the prewarmed engine, and writes the forked Eval's own
	// memo maps.
	evalAfter := func(ch diff.Change) *diff.Eval {
		if s.Cfg.DisableIncremental {
			ms2 := ev.MS.Clone()
			ch.Apply(ms2)
			return en.NewEval(ms2)
		}
		return ev.Fork(ch)
	}
	// scoreOf computes the heap key of a candidate under the current state,
	// recording the raw benefit on the item. Concurrency-safe per item.
	scoreOf := func(it *item) float64 {
		trial := s.withChange(set, it.change)
		ben := cur - s.totalCost(evalAfter(it.change), trial)
		it.raw = ben
		if s.Cfg.SpaceBudget > 0 && it.bytes > 0 {
			ben /= it.bytes
		}
		return ben
	}
	benefitOf := func(it *item) float64 {
		res.BenefitCalls++
		return scoreOf(it)
	}
	apply := func(it *item) {
		ev = evalAfter(it.change)
		it.change.Apply(ms)
		set = s.withChange(set, it.change)
		cur = s.totalCost(ev, set)
		res.Chosen = append(res.Chosen, s.decisionFor(ev, it))
	}

	spaceLeft := s.Cfg.SpaceBudget

	cands := s.candidates(ms)
	res.CandidateCount = len(cands)
	items := make([]*item, len(cands))
	for i, c := range cands {
		items[i] = &item{change: c, epoch: 0, bytes: s.bytesOf(c)}
	}

	if s.Cfg.DisableMonotonicity {
		// Naive greedy (paper Fig. 2 without §6.2 optimization 2): every
		// remaining candidate's benefit is recomputed each iteration — each
		// sweep fans out over the worker pool; the arg-max scan stays serial
		// and in candidate order, so picks are identical to a serial run.
		remaining := append([]*item(nil), items...)
		for len(remaining) > 0 {
			if s.Cfg.MaxChoices > 0 && len(res.Chosen) >= s.Cfg.MaxChoices {
				break
			}
			eligible := remaining
			if s.Cfg.SpaceBudget > 0 {
				eligible = make([]*item, 0, len(remaining))
				for _, it := range remaining {
					if it.bytes <= spaceLeft {
						eligible = append(eligible, it)
					}
				}
			}
			s.evalConcurrently(len(eligible), func(i int) {
				eligible[i].benefit = scoreOf(eligible[i])
			})
			res.BenefitCalls += len(eligible)
			bestI := -1
			bestBen := s.Cfg.MinBenefit
			for i, it := range remaining {
				if s.Cfg.SpaceBudget > 0 && it.bytes > spaceLeft {
					continue
				}
				if it.benefit > bestBen {
					bestBen, bestI = it.benefit, i
				}
			}
			if bestI < 0 {
				break
			}
			pick := remaining[bestI]
			remaining = append(remaining[:bestI], remaining[bestI+1:]...)
			apply(pick)
			if s.Cfg.SpaceBudget > 0 {
				spaceLeft -= pick.bytes
			}
		}
	} else {
		// Initial heap fill: every candidate's epoch-0 benefit, evaluated
		// concurrently on forked Evals and pushed in candidate order so the
		// heap — and hence every later pick — is deterministic. Candidates
		// over the space budget are dropped unevaluated, as the lazy heap
		// used to discard them at pop time before costing them.
		fill := items
		if s.Cfg.SpaceBudget > 0 {
			fill = make([]*item, 0, len(items))
			for _, it := range items {
				if it.bytes <= spaceLeft {
					fill = append(fill, it)
				}
			}
		}
		s.evalConcurrently(len(fill), func(i int) {
			fill[i].benefit = scoreOf(fill[i])
		})
		res.BenefitCalls += len(fill)
		h := &maxHeap{}
		for _, it := range fill {
			heap.Push(h, it)
		}
		epoch := 0
		for h.Len() > 0 {
			if s.Cfg.MaxChoices > 0 && len(res.Chosen) >= s.Cfg.MaxChoices {
				break
			}
			top := (*h)[0]
			if s.Cfg.SpaceBudget > 0 && top.bytes > spaceLeft {
				heap.Pop(h) // does not fit; discard
				continue
			}
			if top.epoch != epoch {
				// Stale: recompute its benefit under the current state, push
				// back, and try again (monotonicity optimization: fresh
				// entries above stale ones are picked without recomputation).
				heap.Pop(h)
				top.benefit = benefitOf(top)
				top.epoch = epoch
				heap.Push(h, top)
				continue
			}
			// Fresh maximum: the greedy pick.
			if top.benefit <= s.Cfg.MinBenefit {
				break
			}
			heap.Pop(h)
			apply(top)
			epoch++
			if s.Cfg.SpaceBudget > 0 {
				spaceLeft -= top.bytes
			}
		}
	}
	res.Eval = ev
	res.FinalCost = cur
	sort.SliceStable(res.Chosen, func(i, j int) bool { return res.Chosen[i].Benefit > res.Chosen[j].Benefit })
	return res
}

// withChange returns a copy of the chosen set including the change.
func (s *Selector) withChange(set *chosenSet, c diff.Change) *chosenSet {
	out := &chosenSet{
		fulls:   append([]int(nil), set.fulls...),
		diffs:   append([]diff.DiffKey(nil), set.diffs...),
		indexes: append([]volcano.IndexKey(nil), set.indexes...),
	}
	switch c.Kind {
	case diff.ChangeFull:
		out.fulls = append(out.fulls, c.EquivID)
	case diff.ChangeDiff:
		out.diffs = append(out.diffs, diff.DiffKey{EquivID: c.EquivID, Update: c.Update})
	case diff.ChangeIndex:
		out.indexes = append(out.indexes, volcano.IndexKey{EquivID: c.EquivID, Col: c.Col})
	}
	return out
}

// decisionFor finalizes the record for a pick, deciding temporary versus
// permanent for full results (paper §6.1: cheaper of recomputation and
// incremental maintenance).
func (s *Selector) decisionFor(ev *diff.Eval, it *item) Decision {
	en := s.En
	d := Decision{
		Change:  it.change,
		Benefit: it.raw,
		Bytes:   it.bytes,
		Desc:    s.describe(it.change),
	}
	switch it.change.Kind {
	case diff.ChangeFull:
		e := en.D.Equivs[it.change.EquivID]
		recompute := ev.ComputeCost(e) + en.Model.WriteCost(en.FinalRows(e), dag.Width(e))
		d.Permanent = ev.MaintCost(e) < recompute
	case diff.ChangeIndex:
		d.Permanent = true
	}
	return d
}

// Run is a convenience wrapper: build a selector and run it.
func Run(en *diff.Engine, views []*dag.Equiv, cfg Config) *Result {
	return New(en, views, cfg).Run()
}

// RunWorkload runs selection for a mixed workload: materialized views to
// maintain plus weighted read-only queries that benefit from the chosen
// materializations.
func RunWorkload(en *diff.Engine, views []*dag.Equiv, queries []WeightedQuery, cfg Config) *Result {
	s := New(en, views, cfg)
	s.Queries = queries
	return s.Run()
}
