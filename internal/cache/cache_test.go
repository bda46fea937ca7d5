package cache

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
	"repro/internal/volcano"
)

const hotQuery = `
	SELECT customer.c_nationkey, SUM(orders.o_totalprice) AS rev, COUNT(*)
	FROM orders, customer
	WHERE orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255
	GROUP BY customer.c_nationkey`

const coldQuery = `
	SELECT part.p_type, COUNT(*)
	FROM part
	GROUP BY part.p_type`

func manager(budgetMB float64) *Manager {
	cat := tpcd.NewCatalog(0.1, true)
	return New(cat, cost.Default(), budgetMB*(1<<20))
}

func TestRepeatedQueryGetsCached(t *testing.T) {
	m := manager(64)
	def := viewdef.MustParse(m.Cat, hotQuery)
	first := m.MustExecute("q1", def)
	if first.CumCost <= 0 {
		t.Fatalf("first execution must cost something")
	}
	// Re-issue the same query; it should now reuse a cached result.
	again := m.MustExecute("q2", viewdef.MustParse(m.Cat, hotQuery))
	if again.CumCost >= first.CumCost {
		t.Errorf("repeat should be cheaper: %g vs %g", again.CumCost, first.CumCost)
	}
	if m.hits == 0 {
		t.Errorf("repeat should register a cache hit")
	}
}

func TestOverlappingQueriesShareCache(t *testing.T) {
	m := manager(256)
	// First a selective join query: its result (~10% of orders joined with
	// their customers) is cheaper to read back than to recompute, so it is
	// the natural cache entry. (An unselective join would be wider than its
	// inputs and the manager would rightly refuse it.)
	join := `
		SELECT * FROM orders, customer
		WHERE orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255`
	m.MustExecute("q1", viewdef.MustParse(m.Cat, join))
	// A different query shape over the same join: an aggregate. Its plan
	// should reuse the cached join instead of recomputing it.
	p := m.MustExecute("q2", viewdef.MustParse(m.Cat, hotQuery))
	reused := map[int]bool{}
	collectReused(p, reused)
	if len(reused) == 0 {
		t.Errorf("overlapping query should reuse cached subexpressions: %s", p)
	}
}

func TestBudgetIsRespected(t *testing.T) {
	m := manager(2) // 2 MB: far too small for the big joins
	for i := 0; i < 5; i++ {
		m.MustExecute("q", viewdef.MustParse(m.Cat, hotQuery))
		if m.UsedBytes() > m.Budget {
			t.Fatalf("budget exceeded: %g > %g", m.UsedBytes(), m.Budget)
		}
	}
}

func TestEvictionPrefersHotEntries(t *testing.T) {
	// Budget fits roughly one result: after hammering the hot query, a single
	// cold query must not evict the hot entry.
	m := manager(1)
	for i := 0; i < 6; i++ {
		m.MustExecute("hot", viewdef.MustParse(m.Cat, hotQuery))
	}
	hotIDs := append([]int(nil), m.Contents()...)
	if len(hotIDs) == 0 {
		t.Skip("nothing fit in 1MB; nothing to test")
	}
	m.MustExecute("cold", viewdef.MustParse(m.Cat, coldQuery))
	stillHot := false
	for _, id := range hotIDs {
		if m.Cached(id) {
			stillHot = true
		}
	}
	if !stillHot {
		t.Errorf("one cold query evicted all hot entries")
	}
	// Hammer the cold query; eventually it may displace the hot entry —
	// that is allowed, rates decay. Just assert the budget holds.
	for i := 0; i < 10; i++ {
		m.MustExecute("cold", viewdef.MustParse(m.Cat, coldQuery))
	}
	if m.UsedBytes() > m.Budget {
		t.Errorf("budget exceeded after churn")
	}
}

func TestZeroBudgetCachesNothing(t *testing.T) {
	m := manager(0)
	m.MustExecute("q", viewdef.MustParse(m.Cat, hotQuery))
	m.MustExecute("q", viewdef.MustParse(m.Cat, hotQuery))
	if len(m.Contents()) != 0 {
		t.Errorf("zero budget must cache nothing")
	}
}

func TestReportRenders(t *testing.T) {
	m := manager(64)
	m.MustExecute("q", viewdef.MustParse(m.Cat, hotQuery))
	m.MustExecute("q", viewdef.MustParse(m.Cat, hotQuery))
	rep := m.Report()
	if !strings.Contains(rep, "queries") || !strings.Contains(rep, "occupancy") {
		t.Errorf("report incomplete:\n%s", rep)
	}
}

func TestSessionCostImprovesOverColdStream(t *testing.T) {
	m := manager(128)
	mix := []string{hotQuery, coldQuery, hotQuery, hotQuery, coldQuery, hotQuery}
	for i, q := range mix {
		m.MustExecute("q", viewdef.MustParse(m.Cat, q))
		_ = i
	}
	if m.CachedCost >= m.ColdCost {
		t.Errorf("cache should reduce the stream's cost: %g vs %g", m.CachedCost, m.ColdCost)
	}
}

func TestInvalidQueryReturnsError(t *testing.T) {
	m := manager(64)
	def := viewdef.MustParse(m.Cat, coldQuery)
	_ = def
	if _, err := m.Execute("bad", nil); err == nil {
		t.Errorf("nil query should error, not panic")
	}
}

func TestRebaseMigratesAndRetiresEntries(t *testing.T) {
	m := manager(256)
	// Populate: one hot aggregate and one cold shape, both cached.
	for i := 0; i < 3; i++ {
		m.MustExecute("hot", viewdef.MustParse(m.Cat, hotQuery))
	}
	m.MustExecute("cold", viewdef.MustParse(m.Cat, coldQuery))
	m.MustExecute("cold", viewdef.MustParse(m.Cat, coldQuery))
	if len(m.entries) == 0 {
		t.Fatal("expected cached entries before rebase")
	}
	oldKeys := map[string]float64{}
	for _, en := range m.entries {
		oldKeys[en.equiv.Key] = en.rate
	}

	// New DAG containing only the hot shape; its root is now base-
	// materialized, so the corresponding entries must retire, and shapes
	// missing from the new DAG must retire too.
	nd := dag.New(m.Cat)
	root := nd.AddQuery("hot", viewdef.MustParse(m.Cat, hotQuery))
	base := volcano.NewMatSet()
	base.Full[root.ID] = true
	model := cost.NewModel(cost.Default())
	old, oldDag := m, m.Dag
	oldEntries := map[int]entry{}
	for id, en := range m.entries {
		oldEntries[id] = *en
	}
	m, kept, retired := m.Rebase(nd, model, base)
	if kept+retired != len(oldKeys) {
		t.Errorf("kept %d + retired %d != prior %d entries", kept, retired, len(oldKeys))
	}
	for id, en := range m.entries {
		if nd.Lookup(en.equiv.Key) == nil {
			t.Errorf("entry %d survived rebase but its shape is not in the new DAG", id)
		}
		if base.Full[id] {
			t.Errorf("entry %d survived rebase but is covered by the base set", id)
		}
		if old, ok := oldKeys[en.equiv.Key]; !ok || en.rate >= old {
			t.Errorf("surviving entry %q must carry a decayed prior rate (%g vs %g)",
				en.equiv.Key, en.rate, old)
		}
	}
	// The manager must stay serviceable over the new DAG: the hot query now
	// answers from the base materialization at reuse cost.
	p := m.MustExecute("post", viewdef.MustParse(m.Cat, hotQuery))
	if p.CumCost <= 0 {
		t.Errorf("post-rebase execution must produce a costed plan")
	}

	// The old manager is untouched: same DAG, same entries, and it still
	// plans over its own DAG for readers of the previous generation.
	if old.Dag != oldDag || len(old.entries) != len(oldEntries) {
		t.Fatalf("rebase changed the old manager: %d entries, want %d", len(old.entries), len(oldEntries))
	}
	for id, en := range old.entries {
		if was, ok := oldEntries[id]; !ok || *en != was {
			t.Errorf("old entry %d changed by rebase: %+v, was %+v", id, *en, was)
		}
	}
	op := old.MustExecute("old", viewdef.MustParse(old.Cat, hotQuery))
	if op.E != oldDag.Lookup(op.E.Key) || op.E == nd.Lookup(op.E.Key) {
		t.Error("the old manager planned outside its own DAG after rebase")
	}
}
