package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/viewdef"
	"repro/internal/volcano"
)

// replica is the traced run's staged copy of Runtime.Query. The runtime plans
// and executes a query behind one call, so its layers cannot be timed from
// outside; the replica is a second serving front end built exactly as core
// documents its own (a dag.New with the system's views re-added and the
// subsumption pass, the plan's stored results as the base volcano.MatSet, a
// cache.Manager over both, a text memo) and walks each query through the
// layers' public functions one stage at a time. Fed the same texts in the
// same order it makes the same plans, so its rows must equal the runtime's.
type replica struct {
	cat   *catalog.Catalog
	par   storage.Par
	mu    sync.Mutex
	dag   *dag.DAG
	mgr   *cache.Manager
	sizer *dag.Sizer
	base  *volcano.MatSet
	toSys map[int]int
	roots map[string]*dag.Equiv
	// rows are the cache entries' materialised rows, valid for rowsEpoch.
	rows      map[int]*storage.Relation
	rowsEpoch int64
}

// staged is where one replayed query spent its time.
type staged struct {
	parse, insert, plan, best, run, lower, scatter time.Duration
	// memoHit is true when the text memo skipped parse and insert.
	memoHit, scattered bool
}

// total is the sum of the layer stages (best is a probe beside them, not a
// stage of the answer).
func (s staged) total() time.Duration {
	return s.parse + s.insert + s.plan + s.run + s.lower + s.scatter
}

// memoCap mirrors core's text-memo bound: reset wholesale when full.
const memoCap = 8192

// newReplica builds the front end for a plan; budget is the cache budget in
// bytes the runtime under test was enabled with (0: caching off).
func newReplica(plan *core.MaintenancePlan, par storage.Par, budget float64) *replica {
	sys := plan.System
	sd := dag.New(sys.Cat)
	for _, v := range sys.Views {
		sd.AddQuery(v.Name, v.Def)
	}
	sd.ApplySubsumption()
	base := volcano.NewMatSet()
	toSys := map[int]int{}
	for sysID := range plan.Eval.MS.Fulls.Full {
		if se := sd.Lookup(sys.Dag.Equivs[sysID].Key); se != nil {
			base.Full[se.ID] = true
			toSys[se.ID] = sysID
		}
	}
	for ik := range plan.Eval.MS.Fulls.Indexes {
		if se := sd.Lookup(sys.Dag.Equivs[ik.EquivID].Key); se != nil {
			base.Indexes[volcano.IndexKey{EquivID: se.ID, Col: ik.Col}] = true
		}
	}
	mgr := cache.NewOver(sd, sys.Model, budget, base)
	return &replica{
		cat: sys.Cat, par: par, dag: sd, mgr: mgr, base: base, toSys: toSys,
		sizer: dag.NewSizer(mgr.Opt.Est, nil),
		roots: map[string]*dag.Equiv{},
		rows:  map[int]*storage.Relation{},
	}
}

// timed runs fn under a span and returns how long it took.
func timed(tr *tracer, name string, parent int32, op int64, fn func()) time.Duration {
	id := tr.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return d
}

// query answers sql on snap stage by stage. With a coordinator it scatters
// the plan over the fleet the way ShardedRuntime.Query does, falling back to
// local execution when the plan cannot be lowered.
func (r *replica) query(sql string, snap *storage.Snapshot, co *shard.Coordinator, tr *tracer, op int64) (rows *storage.Relation, st staged, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("replica: %v", p)
		}
	}()
	parent := tr.begin("replica.query", 0, op)
	defer tr.end(parent)

	plan, mats, refills, err := r.plan(sql, snap, tr, parent, op, &st)
	if err != nil {
		return nil, st, err
	}
	// Refills of admitted cache entries are where a cached plan's execution
	// happens: they count as exec.Run like the plan itself.
	for _, rp := range refills {
		st.run += timed(tr, "exec.Run", parent, op, func() {
			mats[rp.E.ID] = (&exec.Executor{DB: snap.Database(), Mat: mats, Par: r.par}).Run(rp)
		})
	}
	if len(refills) > 0 && co == nil {
		r.mu.Lock()
		if r.rowsEpoch == snap.Epoch() {
			for _, rp := range refills {
				if r.rows[rp.E.ID] == nil {
					r.rows[rp.E.ID] = mats[rp.E.ID]
				}
			}
		}
		r.mu.Unlock()
	}
	ex := &exec.Executor{DB: snap.Database(), Mat: mats, Par: r.par}
	if co != nil {
		var req *shard.ScatterReq
		var ok bool
		st.lower = timed(tr, "shard.Lower", parent, op, func() { req, ok = shard.Lower(plan, r.lowerEnv(snap, ex)) })
		if ok {
			req.Epoch = snap.Epoch()
			st.scatter = timed(tr, "shard.Scatter", parent, op, func() {
				if got, serr := co.Scatter(req, plan.E.Schema); serr == nil {
					rows, st.scattered = got, true
				}
			})
		}
	}
	if rows == nil {
		st.run += timed(tr, "exec.Run", parent, op, func() { rows = ex.Run(plan) })
	}
	return rows, st, nil
}

// plan is the part of a query the runtime serialises behind its planning
// mutex: text memo, parse, DAG insert, plan choice and leaf resolution. It
// returns the plan, the relations behind its reuse leaves, and the base-only
// plans of cache entries whose rows must be computed first.
func (r *replica) plan(sql string, snap *storage.Snapshot, tr *tracer, parent int32, op int64, st *staged) (plan *volcano.PlanNode, mats map[int]*storage.Relation, refills []*volcano.PlanNode, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := r.roots[sql]
	st.memoHit = root != nil
	if root == nil {
		var def algebra.Node
		st.parse = timed(tr, "viewdef.Parse", parent, op, func() { def, err = viewdef.Parse(r.cat, sql) })
		if err != nil {
			return nil, nil, nil, err
		}
		st.insert = timed(tr, "dag.InsertExpr", parent, op, func() { root = r.dag.InsertExpr(def) })
		if len(r.roots) >= memoCap {
			r.roots = map[string]*dag.Equiv{}
		}
		r.roots[sql] = root
	}
	if snap.Epoch() != r.rowsEpoch {
		r.rows = map[int]*storage.Relation{}
		r.rowsEpoch = snap.Epoch()
	}
	st.plan = timed(tr, "cache.ExecuteRoot", parent, op, func() { plan = r.mgr.ExecuteRoot(root) })
	st.best = timed(tr, "volcano.Best", parent, op, func() { r.mgr.Opt.Best(root, r.base, r.sizer, r.mgr.Opt.NewMemo()) })
	mats = map[int]*storage.Relation{}
	err = r.resolve(plan, snap, mats, &refills)
	return plan, mats, refills, err
}

// resolve finds the relation behind every reuse leaf of p: stored results in
// the snapshot, cache entries in r.rows, and for an entry without rows a
// base-only plan to run outside the lock. Must hold r.mu.
func (r *replica) resolve(p *volcano.PlanNode, snap *storage.Snapshot, mats map[int]*storage.Relation, refills *[]*volcano.PlanNode) error {
	if p.Access != volcano.Reuse && p.Access != volcano.Probe {
		for _, ch := range p.Children {
			if err := r.resolve(ch, snap, mats, refills); err != nil {
				return err
			}
		}
		return nil
	}
	e := p.E
	if _, done := mats[e.ID]; done || e.IsTable {
		return nil
	}
	if sysID, ok := r.toSys[e.ID]; ok {
		m := snap.Mat(sysID)
		if m == nil {
			return fmt.Errorf("replica: stored result e%d missing from snapshot %d", sysID, snap.Epoch())
		}
		mats[e.ID] = m
		return nil
	}
	if rw, ok := r.rows[e.ID]; ok {
		mats[e.ID] = rw
		return nil
	}
	mats[e.ID] = nil // pending: a duplicate leaf plans it once
	rp := r.mgr.BasePlan(e)
	if err := r.resolve(rp, snap, mats, refills); err != nil {
		return err
	}
	*refills = append(*refills, rp)
	return nil
}

// lowerEnv is the environment ShardedRuntime.Query lowers plans in.
func (r *replica) lowerEnv(snap *storage.Snapshot, ex *exec.Executor) shard.LowerEnv {
	return shard.LowerEnv{
		Leaf: func(p *volcano.PlanNode) (shard.LeafRef, algebra.Schema, bool) {
			e := p.E
			if e.IsTable {
				rel := snap.Relation(e.Tables[0])
				if rel == nil {
					return shard.LeafRef{}, nil, false
				}
				return shard.LeafRef{Rel: e.Tables[0]}, rel.Schema(), true
			}
			if sysID, ok := r.toSys[e.ID]; ok {
				if m := snap.Mat(sysID); m != nil {
					return shard.LeafRef{Mat: true, ID: int32(sysID)}, m.Schema(), true
				}
			}
			return shard.LeafRef{}, nil, false
		},
		Exec: func(p *volcano.PlanNode) *storage.Relation {
			if p.Access == volcano.Probe {
				return ex.Stored(p.E)
			}
			return ex.Run(p)
		},
		MaxBroadcast: exec.BroadcastMax(),
	}
}
