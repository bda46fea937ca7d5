package exec

// Concurrent DAG-scheduled refresh: within one update step, the differential
// of every maintained result is an independent computation except where the
// optimizer chose to share a temporarily materialized differential. This
// file derives, from the chosen plans, a task graph whose nodes are
// per-result differential computations and whose edges are the reuse
// dependencies (diff.DiffPlan.ReusedDeps) — always pointing strictly
// downward in the AND-OR DAG, so the task graph inherits its acyclicity —
// and schedules it topologically onto a GOMAXPROCS-bounded worker pool.
// Shared differentials are computed exactly once and published through
// storage.Shared write-once cells.
//
// Determinism: during phase 1 every task reads only pre-step state (base
// relations, deltas, materialized results) and published dependency
// results, all of which are fixed, so each task's output relation is
// byte-identical at any worker count; the merge phase then applies results
// in ascending equivalence-node order on the caller's goroutine. Refresh
// output is therefore independent of scheduling, and identical to the
// workers=1 run.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/storage"
)

// diffTask is one node of the step's task graph: the computation of a
// single differential result δ(equiv, update).
type diffTask struct {
	key  diff.DiffKey
	plan *diff.DiffPlan // compute plan (never a reuse access plan)
	// deps are the tasks whose published results this plan reads at its
	// Reused leaves; dependents is the reverse adjacency.
	deps       []*diffTask
	dependents []*diffTask
	// pending counts unmet dependencies; a task becomes ready at zero.
	pending atomic.Int32
	// out publishes the computed differential to dependent tasks and to the
	// merge phase.
	out storage.Shared
}

// stepRun is the task graph of one update step plus the shared execution
// state the workers interpret plans against.
type stepRun struct {
	mt    *Maintainer
	tasks map[diff.DiffKey]*diffTask
	// order lists tasks in a deterministic topological order (dependencies
	// first); it fixes the workers=1 execution order.
	order []*diffTask
}

func newStepRun(mt *Maintainer) *stepRun {
	return &stepRun{mt: mt, tasks: make(map[diff.DiffKey]*diffTask)}
}

// taskFor returns the task computing the differential that the given access
// plan reads — for a reuse plan, the task of the reused key; for a compute
// plan, the task that runs it — creating it (and, recursively, its
// dependencies) on first request. Creation runs on the planning goroutine
// only; it warms the Eval memo so that workers interpret plans without ever
// touching it.
func (sr *stepRun) taskFor(p *diff.DiffPlan) *diffTask {
	return sr.taskByKey(diff.DiffKey{EquivID: p.E.ID, Update: p.Update})
}

func (sr *stepRun) taskByKey(k diff.DiffKey) *diffTask {
	if t, ok := sr.tasks[k]; ok {
		return t
	}
	e := sr.mt.En.D.Equivs[k.EquivID]
	plan := sr.mt.Ev.DiffPlan(e, k.Update)
	if plan.Empty {
		panic(fmt.Sprintf("exec: scheduled task for empty differential δ%d(e%d)", k.Update, k.EquivID))
	}
	t := &diffTask{key: k, plan: plan}
	sr.tasks[k] = t
	for _, dk := range dedupKeys(plan.ReusedDeps(nil)) {
		// A reuse edge must point strictly downward in the AND-OR DAG;
		// anything else would make the task graph cyclic. The descendant
		// sets are cached on the Maintainer (plans are fixed across steps).
		if dk.EquivID == k.EquivID || !sr.mt.descendants(e)[dk.EquivID] {
			panic(fmt.Sprintf("exec: δ%d(e%d) reuses δ%d(e%d), which is not a strict descendant",
				k.Update, k.EquivID, dk.Update, dk.EquivID))
		}
		dt := sr.taskByKey(dk)
		t.deps = append(t.deps, dt)
		dt.dependents = append(dt.dependents, t)
	}
	t.pending.Store(int32(len(t.deps)))
	sr.order = append(sr.order, t)
	return t
}

// dedupKeys removes duplicate keys, keeping first-occurrence order.
func dedupKeys(keys []diff.DiffKey) []diff.DiffKey {
	if len(keys) < 2 {
		return keys
	}
	seen := make(map[diff.DiffKey]bool, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// run executes every task, bounded by the given worker count (0 or less
// selects runtime.GOMAXPROCS(0)). workers=1 runs the whole graph on the
// calling goroutine in topological order — the degenerate sequential case,
// with sequential panic semantics.
func (sr *stepRun) run(workers int) {
	n := len(sr.order)
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Seed the ready queue with dependency-free tasks, preserving the
	// deterministic topological order. Capacity n: every task is enqueued
	// exactly once, so sends never block.
	ready := make(chan *diffTask, n)
	for _, t := range sr.order {
		if t.pending.Load() == 0 {
			ready <- t
		}
	}

	if workers == 1 {
		for done := 0; done < n; done++ {
			select {
			case t := <-ready:
				sr.runTask(t, ready)
			default:
				panic("exec: refresh task graph deadlocked (cycle?)")
			}
		}
		return
	}

	var remaining atomic.Int32
	remaining.Store(int32(n))
	// Workers recover panics so the pool always drains and shuts down
	// cleanly; the first panic value is re-raised on the caller's goroutine
	// to preserve the sequential failure contract. A panicked task leaves
	// its result unpublished, so dependents fail fast when they read it —
	// those secondary panics are swallowed in favor of the first.
	var (
		panicMu  sync.Mutex
		panicVal interface{}
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ready {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicVal == nil {
								panicVal = r
							}
							panicMu.Unlock()
						}
					}()
					sr.runTask(t, nil)
				}()
				for _, d := range t.dependents {
					if d.pending.Add(-1) == 0 {
						ready <- d
					}
				}
				if remaining.Add(-1) == 0 {
					// Every task has run, so every send has happened:
					// closing is safe and releases the blocked workers.
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// runTask computes and publishes one differential. In the workers=1 path
// the caller passes the ready queue and dependents are enqueued inline;
// the pool path passes nil and handles dependents itself.
func (sr *stepRun) runTask(t *diffTask, ready chan *diffTask) {
	t.out.Publish(func() *storage.Relation { return sr.exec(t.plan) })
	if ready != nil {
		for _, d := range t.dependents {
			if d.pending.Add(-1) == 0 {
				ready <- d
			}
		}
	}
}

// result returns a task's published differential, panicking if the task has
// not run — a scheduling bug, since dependencies are ordered before
// dependents.
func (t *diffTask) result() *storage.Relation {
	r := t.out.Get()
	if r == nil {
		panic(fmt.Sprintf("exec: δ%d(e%d) read before it was published", t.key.Update, t.key.EquivID))
	}
	return r
}

// exec interprets a differential plan against the pre-step state. It is
// safe to call from any worker: all non-dependency inputs (base relations,
// deltas, materialized results, the plan memo) are read-only during
// phase 1, and dependency results are read through published write-once
// cells.
func (sr *stepRun) exec(p *diff.DiffPlan) *storage.Relation {
	return sr.execC(p).Materialize(p.E.Schema)
}

// execC is exec's walker: one differential task's plan tree runs as a single
// columnar pipeline, gathering to rows only when the task publishes its
// result. Joins build on the smaller input (the differential side is usually
// tiny).
func (sr *stepRun) execC(p *diff.DiffPlan) *Batch {
	ex := sr.mt.Ex
	e := p.E
	if p.Empty {
		return batchOf(storage.NewRelation(e.Schema))
	}
	if p.Reused {
		return batchOf(sr.tasks[diff.DiffKey{EquivID: e.ID, Update: p.Update}].result())
	}
	op := p.Op
	switch op.Kind {
	case dag.OpScan:
		d := ex.DB.Delta(op.Table)
		if sr.mt.En.U.IsInsert(p.Update) {
			return batchOf(d.Plus).project(e.Schema)
		}
		return batchOf(d.Minus).project(e.Schema)
	case dag.OpMinus, dag.OpDedup:
		panic(fmt.Sprintf("exec: differential maintenance through %s is not supported; "+
			"materialize and recompute such views instead", op.Kind))
	}
	in := make([]*Batch, 0, 2)
	for _, c := range p.DiffChildren {
		in = append(in, sr.execC(c))
	}
	switch op.Kind {
	case dag.OpJoin, dag.OpSelect, dag.OpProject:
		if in[0].Len() == 0 {
			// Nothing arrives from below, so nothing leaves, whatever the full
			// side holds: it is neither computed nor read.
			return batchOf(storage.NewRelation(e.Schema))
		}
	}
	if op.Kind == dag.OpJoin {
		if len(p.FullInputs) > 0 {
			in = append(in, ex.runC(p.FullInputs[0]))
		} else {
			// The plan's index nested loops: the stored full side is the
			// join's probe side (the differential is the smaller, so
			// buildOnLeft builds on it), read through its carried hash
			// column behind the differential's filter.
			in = append(in, batchOf(ex.stored(otherJoinChild(p))))
		}
	}
	// An aggregate differential consumed by an ancestor aggregates the input
	// delta unsized (merge semantics are the ancestor's concern; the
	// benchmark workloads materialize aggregates only at roots, where the
	// Maintainer merges via AggTable instead).
	return applyOp(op, in, buildOnLeft(in), e.Schema, 0)
}

// otherJoinChild identifies the join input that is NOT the differential side.
func otherJoinChild(p *diff.DiffPlan) *dag.Equiv {
	depID := p.DiffChildren[0].E.ID
	for _, c := range p.Op.Children {
		if c.ID != depID {
			return c
		}
	}
	panic("exec: join differential with no full side")
}
