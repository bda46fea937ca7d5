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

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/catalog"
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
// the lock against immutable snapshots. cat, tracker and snaps are
// immutable pointers set at construction: planning must not read Runtime
// fields the adaptation swap replaces (Plan in particular), so the server
// carries its own references to everything swap-stable it needs.
type server struct {
	cat     *catalog.Catalog
	tracker *workload.Tracker
	snaps   *storage.SnapshotStore
	// refills counts cell fills, which run outside mu.
	refills atomic.Int64

	mu  sync.Mutex
	dag *dag.DAG
	mgr *cache.Manager
	// par is the partition-parallel configuration query executors run with
	// (mirrors Runtime.SetPartitions; read under mu at planning time).
	par storage.Par
	// roots memoizes insertion by query text, so repeated queries skip the
	// parse and DAG walk entirely (bounded by maxRootMemo).
	roots map[string]*dag.Equiv
	// toSys maps serving-DAG node IDs to system-DAG node IDs for every
	// result the maintenance plan keeps materialized; snapshot lookups are
	// keyed by system IDs. The adaptation swap replaces the map rather than
	// mutating it, so a planned query may keep reading it without mu.
	toSys map[int]int
	// cells holds each admitted cache entry's cell for the latest epoch a
	// query read it at.
	cells map[int]*cell
	stats ServeStats
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

	sd, base, toSys := buildFrontEnd(r.Plan)
	r.tracker = workload.NewTracker(0)
	r.retainRetired = opts.RetainHistory
	r.srv = &server{
		cat:     r.Plan.System.Cat,
		tracker: r.tracker,
		snaps:   st,
		par:     r.Ex.Par,
		dag:     sd,
		mgr:     cache.NewOver(sd, r.Plan.System.Model, budget, base),
		roots:   make(map[string]*dag.Equiv),
		toSys:   toSys,
		cells:   make(map[int]*cell),
	}
}

// buildFrontEnd derives the serving front end of a maintenance plan: a
// replica serving DAG replaying the system DAG's definitions (and its
// subsumption pass) so every node the plan materialized has a same-key
// counterpart, plus the base materialized set and the serving-ID →
// system-ID correlation for snapshot lookups. Called at EnableServing and
// again at every adaptation swap, so the serving planner always searches
// over exactly the shapes the installed plan knows.
func buildFrontEnd(plan *MaintenancePlan) (sd *dag.DAG, base *volcano.MatSet, toSys map[int]int) {
	sys := plan.System
	sd = dag.New(sys.Cat)
	for _, v := range sys.Views {
		sd.AddQuery(v.Name, v.Def)
	}
	for _, q := range sys.Queries {
		sd.AddQuery(q.Name, q.Def)
	}
	if !sys.disableSubsumption {
		sd.ApplySubsumption()
	}

	base = volcano.NewMatSet()
	toSys = make(map[int]int)
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
	return sd, base, toSys
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
	return s.mgr.Report()
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
// s.mu it finds sql in the memo (or parses and inserts it), searches a plan
// with cache admission, resolves the plan's leaves against snap and counts
// the query. A nil snap is the current snapshot, read under the lock so an
// adaptation swap (which publishes under it) is atomic for the query. After
// the lock it fills the cache cells the plan reads, and returns the answer
// but for its rows, an executor that computes them, and the serving-ID →
// system-ID map the leaves were resolved with.
func (s *server) plan(sql string, snap *storage.Snapshot, obs func(e *dag.Equiv, est, act float64)) (*QueryResult, *exec.Executor, map[int]int, error) {
	s.mu.Lock()
	root := s.roots[sql]
	if root == nil {
		var err error
		if root, err = s.insert(sql); err != nil {
			s.mu.Unlock()
			return nil, nil, nil, err
		}
		if len(s.roots) >= maxRootMemo {
			s.roots = make(map[string]*dag.Equiv)
		}
		s.roots[sql] = root
	}
	if snap == nil {
		snap = s.snaps.Current()
	}
	res := &QueryResult{SQL: sql, Plan: s.mgr.ExecuteRoot(root), Epoch: snap.Epoch()}
	res.EstCost = res.Plan.CumCost
	ex := &exec.Executor{DB: snap.Database(), Mat: make(map[int]*storage.Relation), Par: s.par, Obs: obs}
	cells := make(map[int]*cell)
	if err := s.resolve(res.Plan, snap, ex, cells, &res.CacheHit); err != nil {
		s.mu.Unlock()
		return nil, nil, nil, err
	}
	s.stats.Queries++
	if res.CacheHit {
		s.stats.CacheHits++
	}
	toSys := s.toSys
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
	return res, ex, toSys, nil
}

// insert parses sql and adds it to the serving DAG, converting panics
// (unknown columns and the like) to errors.
func (s *server) insert(sql string) (e *dag.Equiv, err error) {
	def, err := viewdef.Parse(s.cat, sql)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid query: %v", r)
		}
	}()
	return s.dag.InsertExpr(def), nil
}

// resolve puts the relation behind every Reuse/Probe leaf under p into
// ex.Mat: the snapshot's copy of each plan-time materialization. The leaf
// of an admitted cache entry goes into cells instead, as the entry's cell
// for snap's epoch (a hit) or a new cell, which drops the cells of every
// other epoch. A new cell's base plan reuses only what the snapshot holds
// (cache.Manager.BasePlan), so resolving it meets no cache entry. Must
// hold s.mu.
func (s *server) resolve(p *volcano.PlanNode, snap *storage.Snapshot, ex *exec.Executor, cells map[int]*cell, hit *bool) error {
	if p.Access != volcano.Reuse && p.Access != volcano.Probe {
		for _, c := range p.Children {
			if err := s.resolve(c, snap, ex, cells, hit); err != nil {
				return err
			}
		}
		return nil
	}
	e := p.E
	if e.IsTable || ex.Mat[e.ID] != nil || cells[e.ID] != nil {
		return nil // tables resolve through the snapshot database
	}
	if sysID, ok := s.toSys[e.ID]; ok {
		m := snap.Mat(sysID)
		if m == nil {
			return fmt.Errorf("core: materialized e%d missing from snapshot %d", sysID, snap.Epoch())
		}
		ex.Mat[e.ID] = m
		return nil
	}
	c := s.cells[e.ID]
	if c != nil && c.epoch == snap.Epoch() {
		*hit = true
	} else {
		c = &cell{epoch: snap.Epoch(), plan: s.mgr.BasePlan(e)}
		c.ex = &exec.Executor{DB: ex.DB, Mat: make(map[int]*storage.Relation), Par: ex.Par, Obs: ex.Obs}
		if err := s.resolve(c.plan, snap, c.ex, cells, hit); err != nil {
			return err
		}
		// Local queries read the current epoch under s.mu, so all cells
		// share one epoch: if any is stale, all are.
		for _, old := range s.cells {
			if old.epoch != c.epoch {
				s.cells = make(map[int]*cell)
			}
			break
		}
		s.cells[e.ID] = c
	}
	cells[e.ID] = c
	return nil
}
