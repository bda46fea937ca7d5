// Package cache implements the paper's §8 future-work direction: a dynamic
// query-result caching environment ("we plan to port the system to a
// dynamic query result caching environment; in a companion paper, we study
// the issue of selecting results to cache dynamically").
//
// The Manager observes a stream of queries, inserts each into the shared
// AND-OR DAG (so repeated and overlapping queries unify exactly as view
// definitions do), and adaptively maintains a byte-bounded set of cached
// results. Admission and eviction are benefit-based: each cached entry
// carries an exponentially-decayed rate of realized savings per byte, and a
// candidate is admitted when its projected rate beats the victims it would
// displace — the same benefit-per-unit-space principle the greedy selector
// uses for its space budget (§6.2).
package cache

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/volcano"
)

// entry is one cached result.
type entry struct {
	equiv *dag.Equiv
	bytes float64
	// rate is the exponentially decayed savings-per-query attributable to
	// this entry; admission compares projected rates.
	rate float64
	// uses counts queries that reused the entry (for reporting).
	uses int
}

// Manager is the dynamic cache controller. It is not safe for concurrent
// use; the serving layer serializes planning calls behind one mutex and
// runs only the (lock-free) plan execution concurrently.
type Manager struct {
	// Cat is the catalog the managed DAG is built over.
	Cat *catalog.Catalog
	// Dag is the managed AND-OR DAG; every observed query is inserted into
	// it so repeats and overlaps unify.
	Dag *dag.DAG
	// Opt is the plan-search instance used for cost projections.
	Opt *volcano.Optimizer
	// Model is the cost model behind Opt.
	Model *cost.Model
	// Budget is the cache size in bytes.
	Budget float64
	// Decay ∈ (0,1] ages entry rates each query (smaller = faster aging).
	Decay float64
	// Base is a materialized set treated as always stored (for free, outside
	// the budget): the serving layer passes the maintained views, the greedy
	// extras, and their indexes here, so query plans reuse them and the
	// cache only admits results that beat what maintenance already stores.
	// Nil behaves as the empty set; it must not be mutated after the first
	// query (coldCost memoizes plans found under it).
	Base *volcano.MatSet

	entries map[int]*entry
	sizer   *dag.Sizer
	// coldCost memoizes the cache-free cost per root: it depends only on
	// the root, Base, and static catalog statistics, so repeats of a query
	// skip the second Volcano search.
	coldCost map[int]float64
	// stats
	queries int
	hits    int
	// ColdCost and CachedCost accumulate estimated execution costs with an
	// empty cache versus the managed cache, for reporting.
	ColdCost, CachedCost float64
}

// New creates a cache manager with the given byte budget over a fresh DAG.
func New(cat *catalog.Catalog, params cost.Params, budgetBytes float64) *Manager {
	return NewOver(dag.New(cat), cost.NewModel(params), budgetBytes, nil)
}

// NewOver creates a cache manager over an existing DAG — one that already
// holds view definitions, so observed queries unify with their equivalence
// nodes — with base treated as already materialized (may be nil). The DAG
// must not be shared with a concurrently-running optimizer or refresh.
func NewOver(d *dag.DAG, model *cost.Model, budgetBytes float64, base *volcano.MatSet) *Manager {
	opt := volcano.New(d, model)
	return &Manager{
		Cat: d.Cat, Dag: d, Opt: opt, Model: model,
		Budget: budgetBytes, Decay: 0.8, Base: base,
		entries:  make(map[int]*entry),
		sizer:    dag.NewSizer(opt.Est, nil),
		coldCost: make(map[int]float64),
	}
}

// Rebase returns a manager over a new DAG, cost model and base materialized
// set — the serving layer's adaptation swap hook — and leaves m unchanged
// for readers still planning over m's DAG. Entries migrate by canonical node
// key with one decay round applied (the reconfiguration ages them like a
// query they did not serve); entries the new base set stores anyway, or
// whose shape the new DAG lacks, retire. Session counters carry over; cost
// memos start empty. Also returns how many entries survived and retired.
func (m *Manager) Rebase(d *dag.DAG, model *cost.Model, base *volcano.MatSet) (nm *Manager, kept, retired int) {
	nm = NewOver(d, model, m.Budget, base)
	nm.Decay, nm.queries, nm.hits = m.Decay, m.queries, m.hits
	nm.ColdCost, nm.CachedCost = m.ColdCost, m.CachedCost
	for _, en := range m.entries {
		ne := d.Lookup(en.equiv.Key)
		if ne == nil || (base != nil && base.Full[ne.ID]) {
			retired++
			continue
		}
		nm.entries[ne.ID] = &entry{equiv: ne, bytes: nm.bytesOf(ne), rate: en.rate * m.Decay, uses: en.uses}
		kept++
	}
	return nm, kept, retired
}

// baseSet returns the always-materialized baseline (never nil).
func (m *Manager) baseSet() *volcano.MatSet {
	if m.Base != nil {
		return m.Base
	}
	return volcano.NewMatSet()
}

// matSet builds the volcano view of the current cache contents on top of
// the base materialized set.
func (m *Manager) matSet() *volcano.MatSet {
	ms := m.baseSet().Clone()
	for id := range m.entries {
		ms.Full[id] = true
	}
	return ms
}

// bytesOf estimates an equivalence node's stored size.
func (m *Manager) bytesOf(e *dag.Equiv) float64 {
	return m.sizer.Rows(e) * float64(dag.Width(e))
}

// Execute observes one query: it returns the estimated execution cost under
// the current cache, records which entries were reused, and adapts the
// cache contents. The returned plan reflects the pre-adaptation cache (the
// query that triggers admission does not itself benefit).
func (m *Manager) Execute(name string, def algebra.Node) (*volcano.PlanNode, error) {
	root, err := m.insert(name, def)
	if err != nil {
		return nil, err
	}
	return m.ExecuteRoot(root), nil
}

// ExecuteRoot is Execute for a query already inserted into the managed DAG
// (the serving layer inserts via dag.InsertExpr to keep the root list from
// growing with repeats).
func (m *Manager) ExecuteRoot(root *dag.Equiv) *volcano.PlanNode {
	m.queries++

	// Cost with the cache and with the base materializations alone.
	ms := m.matSet()
	plan := m.Opt.Best(root, ms, m.sizer, m.Opt.NewMemo())
	cold, ok := m.coldCost[root.ID]
	if !ok {
		cold = m.Opt.Best(root, m.baseSet(), m.sizer, m.Opt.NewMemo()).CumCost
		m.coldCost[root.ID] = cold
	}
	m.CachedCost += plan.CumCost
	m.ColdCost += cold

	// Attribute realized savings to the entries the plan reused. A hit is a
	// reuse of a cache entry, not of a base materialization or table index.
	used := map[int]bool{}
	collectReused(plan, used)
	hit := false
	for id := range used {
		if _, ok := m.entries[id]; ok {
			hit = true
			break
		}
	}
	if hit {
		m.hits++
	}
	saved := math.Max(0, cold-plan.CumCost)
	for id := range m.entries {
		m.entries[id].rate *= m.Decay
	}
	for id := range used {
		if en, ok := m.entries[id]; ok {
			en.rate += saved / float64(len(used))
			en.uses++
		}
	}

	// Admission: consider caching each subexpression of this query; the
	// projected benefit of a node is the cost drop of THIS query if the node
	// were cached (future repeats are assumed similar).
	m.consider(root, ms, plan.CumCost)
	return plan
}

// BasePlan returns the best plan for a node reusing only the base
// materialized set — no cache entries. The serving layer uses it to refill
// an admitted entry's rows after a refresh invalidated them: the plan's
// reuse leaves are guaranteed to resolve against the snapshot alone.
func (m *Manager) BasePlan(e *dag.Equiv) *volcano.PlanNode {
	return m.Opt.Best(e, m.baseSet(), m.sizer, m.Opt.NewMemo())
}

// insert adds the query into the DAG, converting panics to errors.
func (m *Manager) insert(name string, def algebra.Node) (e *dag.Equiv, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cache: invalid query %q: %v", name, r)
		}
	}()
	return m.Dag.AddQuery(name, def), nil
}

// consider evaluates admission for the query's own result and its
// subexpressions.
func (m *Manager) consider(root *dag.Equiv, ms *volcano.MatSet, costNow float64) {
	var cands []*dag.Equiv
	seen := map[int]bool{}
	var walk func(e *dag.Equiv)
	walk = func(e *dag.Equiv) {
		if seen[e.ID] || e.IsTable {
			return
		}
		seen[e.ID] = true
		if _, cached := m.entries[e.ID]; !cached {
			cands = append(cands, e)
		}
		for _, op := range e.Ops {
			for _, c := range op.Children {
				walk(c)
			}
		}
	}
	walk(root)

	for _, cand := range cands {
		bytes := m.bytesOf(cand)
		if bytes <= 0 || bytes > m.Budget {
			continue
		}
		trial := ms.Clone()
		trial.Full[cand.ID] = true
		with := m.Opt.Best(root, trial, m.sizer, m.Opt.NewMemo()).CumCost
		projected := costNow - with
		if projected <= 0 {
			continue
		}
		if m.admit(cand, bytes, projected) {
			ms = m.matSet()
			costNow = m.Opt.Best(root, ms, m.sizer, m.Opt.NewMemo()).CumCost
		}
	}
}

// admit caches a candidate if its projected savings rate per byte beats the
// entries that must be evicted to make room. Returns true if admitted.
func (m *Manager) admit(cand *dag.Equiv, bytes, projected float64) bool {
	// Collect victims: lowest rate-per-byte first.
	type victim struct {
		id      int
		rate    float64
		perByte float64
	}
	var vs []victim
	total := 0.0
	for id, en := range m.entries {
		total += en.bytes
		vs = append(vs, victim{id: id, rate: en.rate, perByte: en.rate / math.Max(1, en.bytes)})
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].perByte < vs[j].perByte })

	free := m.Budget - total
	evictRate := 0.0
	var evict []int
	for _, v := range vs {
		if free >= bytes {
			break
		}
		evict = append(evict, v.id)
		evictRate += v.rate
		free += m.entries[v.id].bytes
	}
	if free < bytes {
		return false // cannot fit even after evicting everything considered
	}
	if evictRate >= projected {
		return false // the victims are collectively worth more
	}
	for _, id := range evict {
		delete(m.entries, id)
	}
	m.entries[cand.ID] = &entry{
		equiv: cand, bytes: bytes,
		// Seed the rate with the projected savings so a fresh entry
		// survives until its first reuses arrive.
		rate: projected,
	}
	return true
}

// Contents lists cached node IDs sorted by descending decayed rate.
func (m *Manager) Contents() []int {
	ids := make([]int, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return m.entries[ids[i]].rate > m.entries[ids[j]].rate })
	return ids
}

// Cached reports whether a node is currently cached.
func (m *Manager) Cached(id int) bool { _, ok := m.entries[id]; return ok }

// UsedBytes returns the current cache occupancy.
func (m *Manager) UsedBytes() float64 {
	total := 0.0
	for _, en := range m.entries {
		total += en.bytes
	}
	return total
}

// Report summarizes the cache session.
func (m *Manager) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache: %d queries, %d with cache hits; est cost %.2f s cold → %.2f s cached (%.2fx)\n",
		m.queries, m.hits, m.ColdCost, m.CachedCost,
		m.ColdCost/math.Max(m.CachedCost, 1e-9))
	fmt.Fprintf(&b, "cache occupancy: %.1f of %.1f MB across %d entries\n",
		m.UsedBytes()/(1<<20), m.Budget/(1<<20), len(m.entries))
	for _, id := range m.Contents() {
		en := m.entries[id]
		fmt.Fprintf(&b, "  e%d %v: %.1f MB, rate %.3f s, %d reuses\n",
			id, en.equiv.Tables, en.bytes/(1<<20), en.rate, en.uses)
	}
	return b.String()
}

// collectReused gathers equivalence IDs of Reuse/Probe nodes in a plan.
func collectReused(p *volcano.PlanNode, dst map[int]bool) {
	if p.Access == volcano.Reuse || p.Access == volcano.Probe {
		dst[p.E.ID] = true
		return
	}
	for _, c := range p.Children {
		collectReused(c, dst)
	}
}

// MustExecute is Execute panicking on error, for fixed workloads in tests
// and examples.
func (m *Manager) MustExecute(name string, def algebra.Node) *volcano.PlanNode {
	p, err := m.Execute(name, def)
	if err != nil {
		panic(err)
	}
	return p
}
