package cache_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
	"repro/internal/volcano"
)

// eager is the Manager as it planned before root memos and lazy decay: a
// full search of every query, every entry decayed on every query, and every
// uncached subexpression projected by one more search. It is the oracle the
// Manager's decisions must match bit for bit.
type eager struct {
	opt     *volcano.Optimizer
	sizer   *dag.Sizer
	budget  float64
	decay   float64
	entries map[int]*eagerEntry
	cold    map[int]float64
	hits    int

	coldSum, cachedSum float64
}

type eagerEntry struct {
	bytes, rate float64
	uses        int
}

func newEager(d *dag.DAG, budget float64) *eager {
	opt := volcano.New(d, cost.NewModel(cost.Default()))
	return &eager{
		opt: opt, sizer: dag.NewSizer(opt.Est, nil), budget: budget, decay: 0.8,
		entries: make(map[int]*eagerEntry), cold: make(map[int]float64),
	}
}

func (o *eager) matSet() *volcano.MatSet {
	ms := volcano.NewMatSet()
	for id := range o.entries {
		ms.Full[id] = true
	}
	return ms
}

func (o *eager) best(e *dag.Equiv, ms *volcano.MatSet) *volcano.PlanNode {
	return o.opt.Best(e, ms, o.sizer, o.opt.NewMemo())
}

func (o *eager) executeRoot(root *dag.Equiv) *volcano.PlanNode {
	ms := o.matSet()
	plan := o.best(root, ms)
	cold, ok := o.cold[root.ID]
	if !ok {
		cold = o.best(root, volcano.NewMatSet()).CumCost
		o.cold[root.ID] = cold
	}
	o.cachedSum += plan.CumCost
	o.coldSum += cold

	used := map[int]bool{}
	reused(plan, used)
	hit := false
	for id := range used {
		if _, ok := o.entries[id]; ok {
			hit = true
			break
		}
	}
	if hit {
		o.hits++
	}
	saved := math.Max(0, cold-plan.CumCost)
	for id := range o.entries {
		o.entries[id].rate *= o.decay
	}
	for id := range used {
		if en, ok := o.entries[id]; ok {
			en.rate += saved / float64(len(used))
			en.uses++
		}
	}
	o.consider(root, ms, plan.CumCost)
	return plan
}

func (o *eager) consider(root *dag.Equiv, ms *volcano.MatSet, costNow float64) {
	var cands []*dag.Equiv
	seen := map[int]bool{}
	var walk func(e *dag.Equiv)
	walk = func(e *dag.Equiv) {
		if seen[e.ID] || e.IsTable {
			return
		}
		seen[e.ID] = true
		if _, cached := o.entries[e.ID]; !cached {
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
		bytes := o.sizer.Rows(cand) * float64(dag.Width(cand))
		if bytes <= 0 || bytes > o.budget {
			continue
		}
		trial := ms.Clone()
		trial.Full[cand.ID] = true
		projected := costNow - o.best(root, trial).CumCost
		if projected <= 0 {
			continue
		}
		if o.admit(cand, bytes, projected) {
			ms = o.matSet()
			costNow = o.best(root, ms).CumCost
		}
	}
}

func (o *eager) admit(cand *dag.Equiv, bytes, projected float64) bool {
	type victim struct {
		id            int
		rate, perByte float64
	}
	var vs []victim
	total := 0.0
	for id, en := range o.entries {
		total += en.bytes
		vs = append(vs, victim{id: id, rate: en.rate, perByte: en.rate / math.Max(1, en.bytes)})
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].perByte < vs[j].perByte })
	free := o.budget - total
	evictRate := 0.0
	var evict []int
	for _, v := range vs {
		if free >= bytes {
			break
		}
		evict = append(evict, v.id)
		evictRate += v.rate
		free += o.entries[v.id].bytes
	}
	if free < bytes || evictRate >= projected {
		return false
	}
	for _, id := range evict {
		delete(o.entries, id)
	}
	o.entries[cand.ID] = &eagerEntry{bytes: bytes, rate: projected}
	return true
}

func reused(p *volcano.PlanNode, dst map[int]bool) {
	if p.Access == volcano.Reuse || p.Access == volcano.Probe {
		dst[p.E.ID] = true
		return
	}
	for _, c := range p.Children {
		reused(c, dst)
	}
}

// streamHot are the repeated texts of the oracle stream: aggregates and
// joins over the large tables, whose results fit only the larger budgets,
// small dimension queries that fit every budget, and runs of selections
// whose results (about 25 KB over supplier, 230 KB over customer) fit two
// at a time in the smallest budget and four at a time in the middle one.
var streamHot = []string{
	`SELECT customer.c_nationkey, SUM(orders.o_totalprice) AS rev, COUNT(*) FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255 GROUP BY customer.c_nationkey`,
	`SELECT * FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255`,
	`SELECT part.p_type, COUNT(*) FROM part GROUP BY part.p_type`,
	`SELECT * FROM nation, region WHERE nation.n_regionkey = region.r_regionkey AND region.r_regionkey = 2`,
	`SELECT supplier.s_nationkey, COUNT(*) FROM supplier GROUP BY supplier.s_nationkey`,
	`SELECT * FROM supplier, nation WHERE supplier.s_nationkey = nation.n_nationkey AND supplier.s_acctbal < 0 AND nation.n_regionkey = 1`,
	`SELECT * FROM partsupp, supplier WHERE partsupp.ps_suppkey = supplier.s_suppkey AND supplier.s_acctbal < 100`,
	`SELECT * FROM customer WHERE customer.c_acctbal < 0`,
	`SELECT * FROM customer WHERE customer.c_acctbal < 10`,
	`SELECT * FROM supplier WHERE supplier.s_acctbal < 1000`,
	`SELECT * FROM supplier WHERE supplier.s_acctbal < 900`,
	`SELECT * FROM supplier WHERE supplier.s_acctbal < 800`,
	`SELECT * FROM customer WHERE customer.c_acctbal < 20`,
	`SELECT * FROM customer WHERE customer.c_acctbal < 30`,
}

// streamNovel take one literal each; most literals are seen once.
var streamNovel = []string{
	`SELECT * FROM supplier WHERE supplier.s_acctbal < %d`,
	`SELECT * FROM nation, supplier WHERE supplier.s_nationkey = nation.n_nationkey AND supplier.s_suppkey = %d`,
	`SELECT customer.c_nationkey, COUNT(*) FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND orders.o_orderdate < %d GROUP BY customer.c_nationkey`,
	`SELECT * FROM part WHERE part.p_partkey = %d`,
}

// streamText draws the q-th text: 70 % hot, 20 % a hot text respelled
// (conjuncts rotated, spacing doubled), 10 % a novel literal. The hot set is
// three texts that drift every 300 queries, so entries that stop being read
// decay until a text whose admission they once blocked displaces them.
func streamText(rng *rand.Rand, q int) string {
	hot := func() string { return streamHot[(q/300+rng.Intn(3))%len(streamHot)] }
	switch r := rng.Intn(100); {
	case r < 70:
		return hot()
	case r < 90:
		sql := hot()
		head, where, ok := strings.Cut(sql, " WHERE ")
		if !ok {
			return strings.ReplaceAll(sql, " ", "  ")
		}
		tail := ""
		if w, g, ok := strings.Cut(where, " GROUP BY "); ok {
			where, tail = w, " GROUP BY "+g
		}
		conj := strings.Split(where, " AND ")
		k := rng.Intn(len(conj))
		conj = append(conj[k:], conj[:k]...)
		return head + "  WHERE " + strings.Join(conj, "  AND ") + tail
	default:
		return fmt.Sprintf(streamNovel[rng.Intn(len(streamNovel))], 1+rng.Intn(400))
	}
}

// TestMemoisedPlanningMatchesEagerOracle runs the Manager and the eager
// oracle side by side over one DAG and one seeded stream, at budgets from
// one that holds only small dimension results (and evicts constantly) to
// one that evicts nothing, and requires every observable to be
// bit-identical after every query: the plan's cost, the hit count, the
// cached set, and each entry's decayed rate and reuse count.
func TestMemoisedPlanningMatchesEagerOracle(t *testing.T) {
	queries := 3000
	if testing.Short() {
		queries = 500
	}
	cat := tpcd.NewCatalog(0.1, true)
	for _, mb := range []float64{0.05, 1, 64} {
		t.Run(fmt.Sprintf("%gMB", mb), func(t *testing.T) {
			m := cache.New(cat, cost.Default(), mb*(1<<20))
			o := newEager(m.Dag, m.Budget)
			rng := rand.New(rand.NewSource(int64(mb*100) + 7))
			admissions, evictions, searches := 0, 0, 0
			prev := map[int]bool{}
			for q := 0; q < queries; q++ {
				sql := streamText(rng, q)
				root := m.Dag.InsertExpr(viewdef.MustParse(cat, sql))
				before := m.Searches()
				got, want := m.ExecuteRoot(root), o.executeRoot(root)
				if m.Searches() > before {
					searches++
				}
				if math.Float64bits(got.CumCost) != math.Float64bits(want.CumCost) {
					t.Fatalf("query %d (%s): plan cost %v, oracle %v", q, sql, got.CumCost, want.CumCost)
				}
				if m.Hits() != o.hits {
					t.Fatalf("query %d: %d hits, oracle %d", q, m.Hits(), o.hits)
				}
				if math.Float64bits(m.CachedCost) != math.Float64bits(o.cachedSum) ||
					math.Float64bits(m.ColdCost) != math.Float64bits(o.coldSum) {
					t.Fatalf("query %d: session costs %v/%v, oracle %v/%v", q, m.ColdCost, m.CachedCost, o.coldSum, o.cachedSum)
				}
				ids := m.Contents()
				sort.Ints(ids)
				var wantIDs []int
				for id := range o.entries {
					wantIDs = append(wantIDs, id)
				}
				sort.Ints(wantIDs)
				if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
					t.Fatalf("query %d: cached %v, oracle %v", q, ids, wantIDs)
				}
				rates, uses := m.Rates()
				for _, id := range ids {
					en := o.entries[id]
					if math.Float64bits(rates[id]) != math.Float64bits(en.rate) || uses[id] != en.uses {
						t.Fatalf("query %d: e%d rate %v uses %d, oracle %v uses %d", q, id, rates[id], uses[id], en.rate, en.uses)
					}
					if !prev[id] {
						admissions++
					}
				}
				now := map[int]bool{}
				for _, id := range ids {
					now[id] = true
				}
				for id := range prev {
					if !now[id] {
						evictions++
					}
				}
				prev = now
			}
			if admissions == 0 || (mb < 1 && evictions == 0) {
				t.Fatalf("%d admissions, %d evictions: the stream tests too few decisions", admissions, evictions)
			}
			if searches >= queries {
				t.Fatalf("every one of %d queries searched: no memo was reused", queries)
			}
			t.Logf("%d queries: %d admissions, %d evictions, %d searched, %d cached at the end",
				queries, admissions, evictions, searches, len(prev))
		})
	}
}

// TestRepeatedRootSearchesOnlyAfterItsNodesChange counts plan searches: a
// repeated root runs none while no node under it is admitted or evicted,
// the admission of an unrelated node leaves its memo valid, and the
// admission of a node under it makes the next repeat search again.
func TestRepeatedRootSearchesOnlyAfterItsNodesChange(t *testing.T) {
	cat := tpcd.NewCatalog(0.1, true)
	m := cache.New(cat, cost.Default(), 64*(1<<20))
	run := func(sql string) *dag.Equiv {
		root := m.Dag.InsertExpr(viewdef.MustParse(cat, sql))
		m.ExecuteRoot(root)
		return root
	}
	hot := streamHot[0]
	hotRoot := run(hot)
	run(hot) // the first repeat may still admit; the memo is made by a call that admits nothing
	n := m.Searches()
	for i := 0; i < 3; i++ {
		run(hot)
	}
	if got := m.Searches(); got != n {
		t.Fatalf("three repeats ran %d searches, want 0", got-n)
	}

	cached := len(m.Contents())
	run(`SELECT * FROM part WHERE part.p_partkey = 17`)
	if len(m.Contents()) <= cached {
		t.Fatal("the unrelated query admitted nothing; the leg tests nothing")
	}
	n = m.Searches()
	run(hot)
	if got := m.Searches(); got != n {
		t.Fatalf("a repeat after an unrelated admission ran %d searches, want 0", got-n)
	}

	join := run(streamHot[1])
	if !m.Cached(join.ID) || !dagReaches(hotRoot, join) {
		t.Fatal("the join under the hot root was not admitted; the leg tests nothing")
	}
	n = m.Searches()
	run(hot)
	if m.Searches() == n {
		t.Fatal("a repeat after an admission under its root searched nothing")
	}
	n = m.Searches()
	run(hot)
	if got := m.Searches(); got != n {
		t.Fatalf("the repeat after the re-search ran %d searches, want 0", got-n)
	}
}

// dagReaches reports whether to lies under from.
func dagReaches(from, to *dag.Equiv) bool {
	if from == to {
		return true
	}
	for _, op := range from.Ops {
		for _, c := range op.Children {
			if dagReaches(c, to) {
				return true
			}
		}
	}
	return false
}
