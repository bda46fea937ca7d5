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
//
// A repeated query does no plan search. Like the paper's incremental cost
// update, which re-costs only the ancestors of a node whose materialization
// changed, the Manager memoises each root's outcome — its plan, the entries
// the plan reuses, and the admission candidates with their projected
// savings — and keeps it while no node under the root has been admitted or
// evicted since: every admission stamps the nodes it admits and evicts, and
// a memo is valid while none of its root's descendants carries a newer
// stamp. The memo is exact because a node's operations are all created with
// the node (later insertions never add an operation under an existing one),
// so a root's best plan reads only the cached status of its descendants. A
// valid repeat re-tries admission only for the candidates whose projected
// saving was positive — the rates of the entries they compete with change
// from query to query — and falls back to the full search after the first
// admission. Rate decay is lazy: an entry records the query count it was
// last aged at and is multiplied by Decay once per query missed before it
// is read, the same float operations the eager per-query loop would apply,
// so every decision is bit-identical to decaying every entry on every query.
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

// maxMemo caps each of the Manager's per-node memos (root plans and base
// plans). A full memo is reset wholesale: re-memoising a hot root is one
// search, and one-off roots (novel literals) cannot grow the memo without
// bound.
const maxMemo = 4096

// entry is one cached result.
type entry struct {
	equiv *dag.Equiv
	bytes float64
	// rate is the exponentially decayed savings-per-query attributable to
	// this entry as of query aged; admission compares projected rates.
	rate float64
	// aged is the query count rate was last decayed to (see decayed).
	aged int
	// uses counts queries that reused the entry (for reporting).
	uses int
}

// candidate is one admission candidate of a root: an uncached non-table
// node under it, its stored size, and the cost drop of the root's plan if
// the node alone were added to the cache.
type candidate struct {
	e                *dag.Equiv
	bytes, projected float64
}

// rootPlan is the memoised outcome of ExecuteRoot for one root, valid while
// no node in nodes carries an admission stamp newer than made.
type rootPlan struct {
	made  int
	nodes []int // the root's non-table descendants, the root included
	plan  *volcano.PlanNode
	cold  float64
	// reused lists the cache entries the plan reads; each is credited share,
	// the query's saving split over every node the plan reuses.
	reused []int
	share  float64
	// cands are consider's candidates in walk order, projected against the
	// cache state the memo was made under.
	cands []candidate
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
	// Budget is the cache size in bytes. It must not change after the first
	// query (root memos hold candidates filtered by it).
	Budget float64
	// Decay ∈ (0,1] ages entry rates each query (smaller = faster aging).
	// It must not change after the first query: entries age lazily.
	Decay float64
	// Base is a materialized set treated as always stored (for free, outside
	// the budget): the serving layer passes the maintained views, the greedy
	// extras, and their indexes here, so query plans reuse them and the
	// cache only admits results that beat what maintenance already stores.
	// Nil behaves as the empty set; it must not be mutated after the first
	// query (basePlans and the root memos hold plans found under it).
	Base *volcano.MatSet

	entries map[int]*entry
	sizer   *dag.Sizer
	// basePlans memoises each node's best plan over Base alone: a root's
	// cache-free cost, and the plan that refills an entry's rows.
	basePlans map[int]*volcano.PlanNode
	// plans memoises ExecuteRoot per root; stamps holds, per node, the
	// value of clock when the node was last admitted or evicted.
	plans  map[int]*rootPlan
	stamps map[int]int
	clock  int
	// searches counts plan searches (Best calls), for tests.
	searches int
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
		entries:   make(map[int]*entry),
		sizer:     dag.NewSizer(opt.Est, nil),
		basePlans: make(map[int]*volcano.PlanNode),
		plans:     make(map[int]*rootPlan),
		stamps:    make(map[int]int),
	}
}

// decayed returns en's rate aged to the current query without storing it:
// one multiplication by Decay per query since en.aged, stopping at 0 —
// exactly the operations the eager per-query decay would have applied.
func (m *Manager) decayed(en *entry) float64 {
	r := en.rate
	for q := en.aged; q < m.queries && r != 0; q++ {
		r *= m.Decay
	}
	return r
}

// age brings en's stored rate current.
func (m *Manager) age(en *entry) {
	en.rate, en.aged = m.decayed(en), m.queries
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

// best searches e's cheapest plan under ms with a fresh memo.
func (m *Manager) best(e *dag.Equiv, ms *volcano.MatSet) *volcano.PlanNode {
	m.searches++
	return m.Opt.Best(e, ms, m.sizer, m.Opt.NewMemo())
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
// growing with repeats). A repeat whose memo is valid runs no plan search;
// the returned plan may then be shared with earlier callers and must not
// be mutated.
func (m *Manager) ExecuteRoot(root *dag.Equiv) *volcano.PlanNode {
	m.queries++
	rp := m.plans[root.ID]
	var ms *volcano.MatSet
	if rp == nil || !m.valid(rp) {
		ms = m.matSet()
		rp = m.search(root, ms)
	}
	m.CachedCost += rp.plan.CumCost
	m.ColdCost += rp.cold
	if len(rp.reused) > 0 {
		m.hits++
	}
	for _, id := range rp.reused {
		en := m.entries[id]
		m.age(en)
		en.rate += rp.share
		en.uses++
	}
	// Only a search that admitted nothing leaves a memo: an admission
	// stamps a node under the root, which would invalidate it at once.
	if fresh := ms != nil; !m.consider(root, rp, ms) && fresh {
		if len(m.plans) >= maxMemo {
			m.plans = make(map[int]*rootPlan)
		}
		rp.made = m.clock
		m.plans[root.ID] = rp
	}
	return rp.plan
}

// valid reports whether no node under rp's root has been admitted or
// evicted since rp was made.
func (m *Manager) valid(rp *rootPlan) bool {
	for _, id := range rp.nodes {
		if m.stamps[id] > rp.made {
			return false
		}
	}
	return true
}

// search plans root under ms and gathers what consider needs: the root's
// non-table descendants, and among them the uncached candidates, whose
// projections consider fills in.
func (m *Manager) search(root *dag.Equiv, ms *volcano.MatSet) *rootPlan {
	rp := &rootPlan{plan: m.best(root, ms), cold: m.BasePlan(root).CumCost}

	// Attribute realized savings to the entries the plan reuses. A hit is a
	// reuse of a cache entry, not of a base materialization or table index.
	used := map[int]bool{}
	collectReused(rp.plan, used)
	for id := range used {
		if _, ok := m.entries[id]; ok {
			rp.reused = append(rp.reused, id)
		}
	}
	rp.share = math.Max(0, rp.cold-rp.plan.CumCost) / float64(len(used))

	seen := map[int]bool{}
	var walk func(e *dag.Equiv)
	walk = func(e *dag.Equiv) {
		if seen[e.ID] || e.IsTable {
			return
		}
		seen[e.ID] = true
		rp.nodes = append(rp.nodes, e.ID)
		if _, cached := m.entries[e.ID]; !cached {
			rp.cands = append(rp.cands, candidate{e: e, bytes: m.bytesOf(e)})
		}
		for _, op := range e.Ops {
			for _, c := range op.Children {
				walk(c)
			}
		}
	}
	walk(root)
	return rp
}

// BasePlan returns the best plan for a node reusing only the base
// materialized set — no cache entries. The serving layer uses it to refill
// an admitted entry's rows after a refresh invalidated them: the plan's
// reuse leaves are guaranteed to resolve against the snapshot alone. Base
// is immutable, so the plan is searched once per node and shared.
func (m *Manager) BasePlan(e *dag.Equiv) *volcano.PlanNode {
	p := m.basePlans[e.ID]
	if p == nil {
		if len(m.basePlans) >= maxMemo {
			m.basePlans = make(map[int]*volcano.PlanNode)
		}
		p = m.best(e, m.baseSet())
		m.basePlans[e.ID] = p
	}
	return p
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
// subexpressions: the projected benefit of a node is the cost drop of THIS
// query if the node were cached (future repeats are assumed similar). A nil
// ms means rp is a valid memo whose projections still hold, so only the
// candidates with a positive projection are re-tried, until one is
// admitted; from then on, or for a fresh rp, every candidate is projected
// under the current cache. Returns whether anything was admitted.
func (m *Manager) consider(root *dag.Equiv, rp *rootPlan, ms *volcano.MatSet) (admitted bool) {
	costNow := rp.plan.CumCost
	for i := range rp.cands {
		c := &rp.cands[i]
		if c.bytes <= 0 || c.bytes > m.Budget {
			continue
		}
		if ms != nil {
			c.projected = 0
			if !ms.Full[c.e.ID] {
				ms.Full[c.e.ID] = true
				c.projected = costNow - m.best(root, ms).CumCost
				delete(ms.Full, c.e.ID)
			}
		}
		if c.projected <= 0 {
			continue
		}
		if m.admit(c.e, c.bytes, c.projected) {
			admitted = true
			ms = m.matSet()
			costNow = m.best(root, ms).CumCost
		}
	}
	return admitted
}

// admit caches a candidate if its projected savings rate per byte beats the
// entries that must be evicted to make room, and stamps every node it
// admits or evicts. Returns true if admitted.
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
		m.age(en)
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
	m.clock++
	for _, id := range evict {
		delete(m.entries, id)
		m.stamps[id] = m.clock
	}
	m.stamps[cand.ID] = m.clock
	m.entries[cand.ID] = &entry{
		equiv: cand, bytes: bytes,
		// Seed the rate with the projected savings so a fresh entry
		// survives until its first reuses arrive.
		rate: projected, aged: m.queries,
	}
	return true
}

// Contents lists cached node IDs sorted by descending decayed rate.
func (m *Manager) Contents() []int {
	ids := make([]int, 0, len(m.entries))
	rates := make(map[int]float64, len(m.entries))
	for id, en := range m.entries {
		ids = append(ids, id)
		rates[id] = m.decayed(en)
	}
	sort.Slice(ids, func(i, j int) bool { return rates[ids[i]] > rates[ids[j]] })
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
			id, en.equiv.Tables, en.bytes/(1<<20), m.decayed(en), en.uses)
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
