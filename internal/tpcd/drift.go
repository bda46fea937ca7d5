package tpcd

import (
	"fmt"
	"math/rand"
)

// Seeded workload-drift generation. A drifting workload is a sequence of
// phases, each a weighted mix over a fixed pool of TPC-D query shapes; the
// hot subset rotates from phase to phase, modeling traffic shifts away from
// the workload a static selection was tuned for. The generator is a pure
// function of its seed, so runs replay identical drifts.

// DriftQuery is one weighted query of a phase: SQL in the viewdef subset,
// with Weight meaning executions per refresh cycle.
type DriftQuery struct {
	SQL    string
	Weight float64
}

// driftPool returns the query-shape pool the drift draws from: view-aligned
// shapes (the lineitem⋈orders backbone the benchmark views cover) and
// off-view shapes (partsupp/part/supplier-heavy), so rotating the hot set
// genuinely shifts what is worth materializing. Predicate constants vary
// with the rng, giving distinct-but-related shapes across seeds.
func driftPool(rng *rand.Rand) []string {
	date := int64(200 + rng.Intn(100))
	size := int64(5 + rng.Intn(10))
	return []string{
		fmt.Sprintf(`SELECT * FROM lineitem, orders
			WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < %d`, date),
		fmt.Sprintf(`SELECT customer.c_nationkey, SUM(lineitem.l_extendedprice) AS revenue, COUNT(*)
			FROM lineitem, orders, customer
			WHERE lineitem.l_orderkey = orders.o_orderkey
			  AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < %d
			GROUP BY customer.c_nationkey`, date),
		fmt.Sprintf(`SELECT orders.o_orderdate, COUNT(*)
			FROM lineitem, orders
			WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < %d
			GROUP BY orders.o_orderdate`, date),
		`SELECT * FROM partsupp, supplier
			WHERE partsupp.ps_suppkey = supplier.s_suppkey`,
		fmt.Sprintf(`SELECT part.p_type, SUM(partsupp.ps_supplycost) AS cost, COUNT(*)
			FROM partsupp, part
			WHERE partsupp.ps_partkey = part.p_partkey AND part.p_size < %d
			GROUP BY part.p_type`, size),
		`SELECT supplier.s_nationkey, SUM(partsupp.ps_supplycost) AS cost, COUNT(*)
			FROM partsupp, supplier
			WHERE partsupp.ps_suppkey = supplier.s_suppkey
			GROUP BY supplier.s_nationkey`,
		`SELECT supplier.s_nationkey, COUNT(*) FROM supplier GROUP BY supplier.s_nationkey`,
		fmt.Sprintf(`SELECT * FROM customer WHERE customer.c_mktsegment = %d`, rng.Intn(5)),
	}
}

// DriftServeMix returns a two-phase serving drift: phase 0 is hot on the view-aligned shapes (the lineitem⋈orders
// backbone the benchmark views cover — the workload a static selection is
// tuned for), then traffic drifts to the partsupp-heavy shapes, which are
// expensive to answer cold and covered by nothing the initial plan stores.
// This is the adversarial-for-static drift. Weights and predicate constants
// still vary with the seed; only the hot-set rotation is pinned.
// (DriftPhases below rotates arbitrarily instead, including drifts toward
// cheap shapes.)
func DriftServeMix(seed int64) [][]DriftQuery {
	rng := rand.New(rand.NewSource(seed))
	pool := driftPool(rng)
	hotSets := [][]int{{0, 1, 2}, {3, 4, 5}}
	out := make([][]DriftQuery, len(hotSets))
	for p, hotIdx := range hotSets {
		hot := map[int]bool{}
		for _, i := range hotIdx {
			hot[i] = true
		}
		var phase []DriftQuery
		for i, sql := range pool {
			w := float64(1 + rng.Intn(2))
			if hot[i] {
				w = float64(20 + rng.Intn(41))
			}
			phase = append(phase, DriftQuery{SQL: sql, Weight: w})
		}
		out[p] = phase
	}
	return out
}

// DriftPhases generates a seeded drifting workload of the given number of
// phases. Each phase marks a rotating subset of the pool as hot (high
// weight) and the rest as cold; consecutive phases shift the hot window, so
// any two adjacent phases disagree on what dominates. Weights are drawn
// per-phase: hot shapes 20–60 executions per cycle, cold shapes 0–2 (0
// drops the shape from the phase).
func DriftPhases(seed int64, phases int) [][]DriftQuery {
	rng := rand.New(rand.NewSource(seed))
	pool := driftPool(rng)
	hotN := 2 + rng.Intn(2) // 2–3 hot shapes per phase
	out := make([][]DriftQuery, phases)
	start := rng.Intn(len(pool))
	for p := 0; p < phases; p++ {
		// Rotate the hot window by hotN each phase so hot sets are disjoint
		// between adjacent phases (pool is larger than 2·hotN).
		hot := map[int]bool{}
		for i := 0; i < hotN; i++ {
			hot[(start+p*hotN+i)%len(pool)] = true
		}
		var phase []DriftQuery
		for i, sql := range pool {
			var w float64
			if hot[i] {
				w = float64(20 + rng.Intn(41))
			} else {
				w = float64(rng.Intn(3))
			}
			if w > 0 {
				phase = append(phase, DriftQuery{SQL: sql, Weight: w})
			}
		}
		out[p] = phase
	}
	return out
}
