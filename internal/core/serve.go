package core

// Query serving over the maintained views. EnableServing turns a refresh
// Runtime into a read/write system: any number of goroutines call Query
// with SQL text while one writer runs Refresh. Isolation is epoch-based —
// the Maintainer publishes every committed batch's outcome as an immutable
// storage.Snapshot, and a query executes entirely against the snapshot that
// was current when it was planned, so it observes exactly one committed
// state, never a half-applied batch (see ARCHITECTURE.md, "Serving and
// snapshots").
//
// Planning runs over a serving AND-OR DAG: a replica of the system DAG's
// front end (the registered view and query definitions, with the same
// subsumption derivations), so ad-hoc queries unify with the equivalence
// nodes whose results maintenance keeps materialized, and the Volcano
// search answers from stored results and indexes whenever that is cheaper
// than computing from base relations. The replica exists so that query
// planning — which grows the DAG when a new query shape arrives — shares no
// mutable structure with the concurrently-running refresh; the two DAGs are
// correlated by canonical node key (dag.Lookup). Hot query results are
// additionally admitted into a cache.Manager by projected benefit. An
// admitted entry's rows live in a write-once cell per epoch: the first
// reader that needs them fills the cell, every other reader at that epoch
// shares the one copy, and a newer epoch starts a new cell.
//
// The serving DAG, its cache manager, the ID map, the text memo and the
// cells form one front-end generation per materialized set. Every query
// plans with the generation of the snapshot it reads — so a sharded gate
// behind an adaptation install resolves against the set that snapshot
// holds — and an install drops the generations no retained snapshot needs.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/viewdef"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// ServeOptions configures Runtime.EnableServing.
type ServeOptions struct {
	// CacheBudget is the dynamic result cache size in bytes. 0 selects the
	// default (64 MB); a negative value disables result caching entirely.
	CacheBudget float64
	// RetainHistory makes the snapshot store keep every published snapshot,
	// so tests can compare query results against exact committed states.
	// It pins every relation version ever published; leave it off outside
	// bounded test runs.
	RetainHistory bool
}

// QueryResult is the answer to one served query.
type QueryResult struct {
	// SQL is the query text as submitted.
	SQL string
	// Rows holds the result. It may alias a materialized or cached relation
	// and must not be mutated.
	Rows *storage.Relation
	// Plan is the chosen physical plan (over the serving DAG).
	Plan *volcano.PlanNode
	// Epoch identifies the snapshot the query executed against: the number
	// of committed refresh batches and adaptation installs that had been
	// published at planning time (counted from the store's first epoch).
	Epoch int64
	// EstCost is the optimizer's cost estimate for Plan, in cost-model
	// seconds.
	EstCost float64
	// CacheHit reports whether the plan read at least one dynamically
	// cached result (as opposed to plan-time materializations, which are
	// not counted).
	CacheHit bool
}

// ServeStats counts serving activity since EnableServing.
type ServeStats struct {
	// Queries is the number of successfully planned queries.
	Queries int64
	// CacheHits is the number of queries whose plan read at least one
	// dynamically cached result. A query that finds its epoch's cell for an
	// entry counts as a hit even while another reader is still filling it.
	CacheHits int64
	// Refills is the number of cache-entry materializations: an admitted
	// entry's cell is filled on first reuse at each epoch, at most once per
	// entry per epoch however many readers race for it.
	Refills int64
}

// maxRootMemo caps the query-text → root memo. When full it is reset
// wholesale rather than evicted: re-memoizing a text is one parse plus a
// DAG walk that unifies with existing nodes, so the reset is cheap and the
// memo cannot grow with distinct query texts. (Distinct query *shapes*
// still grow the serving DAG monotonically — acceptable for bounded
// workloads, the assumption everywhere else in this system.)
const maxRootMemo = 8192

// server is the planning half of the serving layer. Everything behind mu is
// shared mutable state touched only while planning; execution runs outside
// the lock against immutable snapshots. tracker and snaps are immutable
// pointers set at construction: planning must not read Runtime fields the
// adaptation swap replaces (Plan in particular), so the server carries its
// own references to everything swap-stable it needs.
type server struct {
	tracker *workload.Tracker
	snaps   *storage.SnapshotStore
	// refills counts cell fills, which run outside mu.
	refills atomic.Int64

	mu sync.Mutex
	// par is the partition-parallel configuration query executors run with
	// (mirrors Runtime.SetPartitions; read under mu at planning time).
	par storage.Par
	// gens holds, oldest first, each generation a retained snapshot maps to.
	gens  []*frontEnd
	stats ServeStats
}

// frontEnd is one serving generation (see the package comment): the planner
// state for one materialized set, serving every epoch from from on until the
// next generation's. Its maps and manager are touched only under server.mu.
type frontEnd struct {
	from int64
	dag  *dag.DAG
	mgr  *cache.Manager
	// toSys maps serving-DAG node IDs to system-DAG node IDs for every
	// result the maintenance plan keeps materialized; snapshot lookups are
	// keyed by system IDs. Never mutated: a planned query reads it unlocked.
	toSys map[int]int
	// roots memoizes insertion by query text, so repeated queries skip the
	// parse and DAG walk entirely (bounded by maxRootMemo).
	roots map[string]*dag.Equiv
	// cells holds each admitted cache entry's cell for its latest epoch read.
	cells map[int]*cell
}

// gen returns the index of the generation serving epoch, the newest whose
// from is at or before it, or -1 if epoch predates them all. Must hold s.mu.
func (s *server) gen(epoch int64) int {
	i := len(s.gens) - 1
	for i >= 0 && s.gens[i].from > epoch {
		i--
	}
	return i
}

// latest returns the newest generation. Must hold s.mu.
func (s *server) latest() *frontEnd { return s.gens[len(s.gens)-1] }

// install appends g, serving from the next epoch, with the newest cache
// manager rebased onto it. Writer only, before it publishes that epoch.
func (s *server) install(g *frontEnd, model *cost.Model, base *volcano.MatSet) {
	g.from = s.snaps.Current().Epoch() + 1
	s.mu.Lock()
	g.mgr, _, _ = s.latest().mgr.Rebase(g.dag, model, base)
	s.gens = append(s.gens, g)
	s.mu.Unlock()
}

// prune keeps the generations from the oldest retained epoch's on (retained
// epochs are contiguous) and empties the cells of all but the newest, which
// current-epoch readers now plan with. Writer only, after an install's epoch
// is published.
func (s *server) prune() {
	oldest := s.snaps.Current().Epoch()
	if h := s.snaps.History(); len(h) > 0 {
		oldest = h[0].Epoch()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gens = append([]*frontEnd(nil), s.gens[max(s.gen(oldest), 0):]...)
	for _, g := range s.gens[:len(s.gens)-1] {
		g.cells = make(map[int]*cell)
	}
}

// EnableServing switches the runtime into snapshot-publishing mode and
// builds the query-serving front end. Call it once, before starting any
// concurrent Refresh; it is idempotent. After it returns, Query may be
// called from any number of goroutines concurrently with one goroutine
// running Refresh.
func (r *Runtime) EnableServing(opts ServeOptions) {
	r.srvMu.Lock()
	defer r.srvMu.Unlock()
	r.enableServingLocked(opts)
}

func (r *Runtime) enableServingLocked(opts ServeOptions) {
	if r.srv != nil {
		return
	}
	budget := opts.CacheBudget
	switch {
	case budget == 0:
		budget = 64 << 20
	case budget < 0:
		budget = 0
	}

	st := r.Mt.Snap
	if st == nil {
		st = storage.NewSnapshotStore()
		st.RetainHistory(opts.RetainHistory)
		st.PublishState(r.Ex.DB, r.Ex.Mat) // epoch 0: the initial materialized state
		r.Mt.Snap = st
	} else {
		// A durable runtime already publishes snapshots (OpenDurable seeded
		// the store with the recovered epoch); serving joins the existing
		// sequence rather than restarting it at 0.
		st.RetainHistory(opts.RetainHistory)
	}

	g, base := newFrontEnd(r.Plan)
	g.from = st.Current().Epoch()
	g.mgr = cache.NewOver(g.dag, r.Plan.System.Model, budget, base)
	r.tracker = workload.NewTracker(0)
	r.retainRetired = opts.RetainHistory
	r.srv = &server{tracker: r.tracker, snaps: st, par: r.Ex.Par, gens: []*frontEnd{g}}
}

// newFrontEnd derives the serving generation of a maintenance plan: a
// replica serving DAG replaying the system DAG's definitions (and its
// subsumption pass) so every node the plan materialized has a same-key
// counterpart, and the serving-ID → system-ID correlation for snapshot
// lookups. The caller adds the cache manager over the returned base set.
func newFrontEnd(plan *MaintenancePlan) (*frontEnd, *volcano.MatSet) {
	sys := plan.System
	sd := dag.New(sys.Cat)
	for _, v := range sys.Views {
		sd.AddQuery(v.Name, v.Def)
	}
	for _, q := range sys.Queries {
		sd.AddQuery(q.Name, q.Def)
	}
	if !sys.disableSubsumption {
		sd.ApplySubsumption()
	}

	base := volcano.NewMatSet()
	g := &frontEnd{dag: sd, toSys: make(map[int]int), roots: make(map[string]*dag.Equiv), cells: make(map[int]*cell)}
	for sysID := range plan.Eval.MS.Fulls.Full {
		if se := sd.Lookup(sys.Dag.Equivs[sysID].Key); se != nil {
			base.Full[se.ID] = true
			g.toSys[se.ID] = sysID
		}
	}
	for ik := range plan.Eval.MS.Fulls.Indexes {
		if se := sd.Lookup(sys.Dag.Equivs[ik.EquivID].Key); se != nil {
			base.Indexes[volcano.IndexKey{EquivID: se.ID, Col: ik.Col}] = true
		}
	}
	return g, base
}

// server returns the serving front end, enabling it with defaults on first
// use. First use must not race with a running Refresh — call EnableServing
// explicitly before serving concurrently with refreshes.
func (r *Runtime) server() *server {
	r.srvMu.Lock()
	defer r.srvMu.Unlock()
	r.enableServingLocked(ServeOptions{})
	return r.srv
}

// Snapshots exposes the snapshot store (nil until serving is enabled).
// Tests use it to retain and inspect committed states.
func (r *Runtime) Snapshots() *storage.SnapshotStore { return r.Mt.Snap }

// serverIfEnabled returns the serving front end without enabling it: the
// read-only accessors must not switch Refresh into snapshot mode as a side
// effect.
func (r *Runtime) serverIfEnabled() *server {
	r.srvMu.Lock()
	defer r.srvMu.Unlock()
	return r.srv
}

// ServeStats returns a copy of the serving counters (zero before serving
// is enabled).
func (r *Runtime) ServeStats() ServeStats {
	s := r.serverIfEnabled()
	if s == nil {
		return ServeStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Refills = s.refills.Load()
	return st
}

// CacheReport renders the dynamic cache manager's session summary (empty
// before serving is enabled).
func (r *Runtime) CacheReport() string {
	s := r.serverIfEnabled()
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest().mgr.Report()
}

// Query parses, plans and executes one read-only query against the current
// snapshot. Safe to call from any number of goroutines concurrently with
// one writer running Refresh (enable serving first). Planning — parse,
// DAG insertion/unification, Volcano search, cache admission — is
// serialized behind the serving mutex; execution runs lock-free against the
// immutable snapshot that was current at planning time, so the result
// reflects exactly one committed batch.
func (r *Runtime) Query(sql string) (*QueryResult, error) {
	// With feedback enabled (r.fbObs set before serving started), every
	// operator of the served plan — including Reuse reads of maintained
	// views, whose stored length is the node's true cardinality — reports
	// its actual output against the optimizer's estimate.
	res, ex, _, err := r.server().plan(sql, nil, r.fbObs)
	if err != nil {
		return nil, err
	}
	res.Rows = ex.Run(res.Plan)
	return res, nil
}

// cell holds one admitted cache entry's rows at one epoch: a write-once
// relation, and the entry's base plan with an executor over that epoch's
// snapshot and the plan's resolved leaves. The first reader that needs the
// rows fills the cell outside the serving mutex; every other reader at
// that epoch waits for and shares that one copy.
type cell struct {
	storage.Shared
	epoch int64
	plan  *volcano.PlanNode
	ex    *exec.Executor
}

// plan is the planning half of every served query, local or sharded. Under
// s.mu it picks the generation serving snap's epoch, finds sql in its memo
// (or parses and inserts it), searches a plan with cache admission, resolves
// the plan's leaves against snap and counts the query. A nil snap is the
// current snapshot, read under the lock so its generation is still
// retained. After the lock it fills the cache cells the plan reads, and
// returns the answer but for its rows, an executor that computes them, and
// the serving-ID → system-ID map the leaves were resolved with.
func (s *server) plan(sql string, snap *storage.Snapshot, obs func(e *dag.Equiv, est, act float64)) (*QueryResult, *exec.Executor, map[int]int, error) {
	s.mu.Lock()
	if snap == nil {
		snap = s.snaps.Current()
	}
	i := s.gen(snap.Epoch())
	if i < 0 {
		s.mu.Unlock()
		return nil, nil, nil, fmt.Errorf("core: no serving generation retained for snapshot %d", snap.Epoch())
	}
	g := s.gens[i]
	root := g.roots[sql]
	if root == nil {
		var err error
		if root, err = g.insert(sql); err != nil {
			s.mu.Unlock()
			return nil, nil, nil, err
		}
		if len(g.roots) >= maxRootMemo {
			g.roots = make(map[string]*dag.Equiv)
		}
		g.roots[sql] = root
	}
	res := &QueryResult{SQL: sql, Plan: g.mgr.ExecuteRoot(root), Epoch: snap.Epoch()}
	res.EstCost = res.Plan.CumCost
	ex := &exec.Executor{DB: snap.Database(), Mat: make(map[int]*storage.Relation), Par: s.par, Obs: obs}
	cells := make(map[int]*cell)
	if err := g.resolve(res.Plan, snap, ex, cells, &res.CacheHit); err != nil {
		s.mu.Unlock()
		return nil, nil, nil, err
	}
	s.stats.Queries++
	if res.CacheHit {
		s.stats.CacheHits++
	}
	s.mu.Unlock()
	// Feed the workload tracker outside the serving mutex (it has its own):
	// shapes merge by canonical key, so the adaptation pipeline sees
	// per-shape rates regardless of text variants.
	s.tracker.ObserveQuery(root.Key, sql)

	for id, c := range cells {
		rel := c.Publish(func() *storage.Relation {
			s.refills.Add(1)
			return c.ex.Run(c.plan)
		})
		if rel == nil {
			// Only a fill that panicked leaves nil, and sync.Once never
			// reruns it: fail the query rather than run it on a nil leaf.
			return nil, nil, nil, fmt.Errorf("core: cache entry e%d has no rows at epoch %d", id, res.Epoch)
		}
		ex.Mat[id] = rel
	}
	return res, ex, g.toSys, nil
}

// insert parses sql and adds it to the generation's DAG, converting panics
// (unknown columns and the like) to errors.
func (g *frontEnd) insert(sql string) (e *dag.Equiv, err error) {
	def, err := viewdef.Parse(g.dag.Cat, sql)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid query: %v", r)
		}
	}()
	return g.dag.InsertExpr(def), nil
}

// resolve puts the relation behind every Reuse/Probe leaf under p into
// ex.Mat: the snapshot's copy of each plan-time materialization. The leaf
// of an admitted cache entry goes into cells instead, as the entry's cell
// for snap's epoch (a hit) or a new cell, which drops the cells of every
// other epoch. A new cell's base plan reuses only what the snapshot holds
// (cache.Manager.BasePlan), so resolving it meets no cache entry. Must
// hold server.mu.
func (g *frontEnd) resolve(p *volcano.PlanNode, snap *storage.Snapshot, ex *exec.Executor, cells map[int]*cell, hit *bool) error {
	if p.Access != volcano.Reuse && p.Access != volcano.Probe {
		for _, c := range p.Children {
			if err := g.resolve(c, snap, ex, cells, hit); err != nil {
				return err
			}
		}
		return nil
	}
	e := p.E
	if e.IsTable || ex.Mat[e.ID] != nil || cells[e.ID] != nil {
		return nil // tables resolve through the snapshot database
	}
	if sysID, ok := g.toSys[e.ID]; ok {
		m := snap.Mat(sysID)
		if m == nil {
			return fmt.Errorf("core: materialized e%d missing from snapshot %d", sysID, snap.Epoch())
		}
		ex.Mat[e.ID] = m
		return nil
	}
	c := g.cells[e.ID]
	if c != nil && c.epoch == snap.Epoch() {
		*hit = true
	} else {
		c = &cell{epoch: snap.Epoch(), plan: g.mgr.BasePlan(e)}
		c.ex = &exec.Executor{DB: ex.DB, Mat: make(map[int]*storage.Relation), Par: ex.Par, Obs: ex.Obs}
		if err := g.resolve(c.plan, snap, c.ex, cells, hit); err != nil {
			return err
		}
		// Local queries read the current epoch under s.mu, so all cells
		// share one epoch: if any is stale, all are.
		for _, old := range g.cells {
			if old.epoch != c.epoch {
				g.cells = make(map[int]*cell)
			}
			break
		}
		g.cells[e.ID] = c
	}
	cells[e.ID] = c
	return nil
}
