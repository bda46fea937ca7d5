package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// execTemplate is a query shape with two literals, each drawn from eight
// values, so a workload asks 64 variations of every shape: a domain small
// enough that the serving DAG stops growing during warm-up (planning cost
// grows with the DAG) and large enough that a text rarely repeats within one
// refresh cycle, so the executor answers most queries.
type execTemplate struct {
	sql    string
	aScale int64 // first literal is aScale*k, k in 1..8
	bScale int64
}

// execTemplates are the serving mix of the workloads where execution
// dominates: two joins over the lineitem-orders backbone that the stored
// views subsume, a partsupp-supplier join, and an aggregate nothing
// materialises (the shapes of bench.DefaultServeQueries with a selection
// added; the texts are the benchmark's own).
var execTemplates = []execTemplate{
	{`SELECT * FROM lineitem, orders, customer WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < %d AND lineitem.l_quantity < %d`, 31, 6},
	{`SELECT * FROM lineitem, orders WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < %d AND lineitem.l_quantity < %d`, 31, 6},
	{`SELECT * FROM partsupp, supplier WHERE partsupp.ps_suppkey = supplier.s_suppkey AND partsupp.ps_availqty < %d AND supplier.s_acctbal < %d`, 1250, 1250},
	{`SELECT customer.c_nationkey, SUM(lineitem.l_extendedprice) AS revenue, COUNT(*) FROM lineitem, orders, customer WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < %d AND lineitem.l_quantity < %d GROUP BY customer.c_nationkey`, 31, 6},
}

// scatterTemplates are the non-aggregate joins of the mix: the shapes
// shard.Lower can express, so the fleet answers them.
var scatterTemplates = execTemplates[:3]

func (t execTemplate) text(a, b int64) string {
	return fmt.Sprintf(t.sql, t.aScale*a, t.bScale*b)
}

// warmTexts is one text per template, asked once in set-up.
func warmTexts(ts []execTemplate) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.text(8, 8))
	}
	return out
}

// execMix draws a seeded stream over the templates and their literals.
func execMix(ts []execTemplate, seed int64) func() string {
	rng := rand.New(rand.NewSource(seed*131 + 7))
	return func() string {
		return ts[rng.Intn(len(ts))].text(1+rng.Int63n(8), 1+rng.Int63n(8))
	}
}

// hotQueries are serve_plan's repeated texts: small-answer queries where
// planning, not execution, is the cost. View-equal texts are answered by
// reusing the stored view; the rest are tiny scans.
var hotQueries = []string{
	`SELECT * FROM partsupp, supplier WHERE partsupp.ps_suppkey = supplier.s_suppkey`,
	`SELECT * FROM partsupp, supplier, nation WHERE partsupp.ps_suppkey = supplier.s_suppkey AND supplier.s_nationkey = nation.n_nationkey`,
	`SELECT * FROM nation`,
	`SELECT * FROM region`,
	`SELECT * FROM supplier WHERE supplier.s_nationkey = 7`,
	`SELECT * FROM nation, region WHERE nation.n_regionkey = region.r_regionkey AND region.r_regionkey = 2`,
	`SELECT * FROM supplier, nation WHERE supplier.s_nationkey = nation.n_nationkey AND supplier.s_acctbal < 0 AND nation.n_regionkey = 1`,
	`SELECT supplier.s_nationkey, COUNT(*) FROM supplier GROUP BY supplier.s_nationkey`,
}

// novelTemplates take one literal from novelDomain values; a literal is a new
// DAG node and a full Volcano search the first time it is seen. The domain
// bounds the serving DAG (planning cost grows with it) while keeping first
// sightings coming through the whole window.
var novelTemplates = []string{
	`SELECT * FROM supplier WHERE supplier.s_acctbal < %d`,
	`SELECT * FROM nation, supplier WHERE supplier.s_nationkey = nation.n_nationkey AND supplier.s_suppkey = %d`,
	`SELECT * FROM part WHERE part.p_partkey = %d`,
}

const novelDomain = 1024

// planMix draws serve_plan's query stream: 70 % hot texts (text memo hit),
// 20 % text variants of hot shapes (parse and DAG unify, no new node), 10 %
// literals from the novel domain (new node and full search when first seen).
type planMix struct {
	rng *rand.Rand
}

func newPlanMix(seed int64, reader int) *planMix {
	return &planMix{rng: rand.New(rand.NewSource(seed*31 + int64(reader)))}
}

func (m *planMix) next() string {
	r := m.rng.Intn(100)
	switch {
	case r < 70:
		return hotQueries[m.rng.Intn(len(hotQueries))]
	case r < 90:
		return variant(hotQueries[m.rng.Intn(len(hotQueries))], m.rng)
	default:
		return fmt.Sprintf(novelTemplates[m.rng.Intn(len(novelTemplates))], 1+m.rng.Intn(novelDomain))
	}
}

// variant rewrites a text without changing its meaning: the conjuncts are
// rotated and the spacing changed, so the text memo misses but the DAG
// unifies the parse with the node it already has.
func variant(sql string, rng *rand.Rand) string {
	head, where, found := strings.Cut(sql, " WHERE ")
	tail := ""
	if found {
		if w, g, ok := strings.Cut(where, " GROUP BY "); ok {
			where, tail = w, " GROUP BY "+g
		}
		conj := strings.Split(where, " AND ")
		k := rng.Intn(len(conj))
		conj = append(conj[k:], conj[:k]...)
		sql = head + " WHERE " + strings.Join(conj, " AND ") + tail
	}
	pad := func() string { return strings.Repeat(" ", 1+rng.Intn(24)) }
	sql = strings.Replace(sql, " FROM ", pad()+"FROM"+pad(), 1)
	return strings.Replace(sql, " WHERE ", pad()+"WHERE ", 1)
}
