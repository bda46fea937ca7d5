// Serving: the full read/write loop. Materialized views are kept fresh by
// a refresh writer while concurrent readers ask SQL queries through
// Runtime.Query. Every answer comes from an immutable epoch snapshot — the
// state after one whole refresh batch, never a torn mix — and hot query
// results are admitted into a benefit-based dynamic cache, whose hit rate
// is printed at the end.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/tpcd"
)

func main() {
	const sf = 0.001
	cat := tpcd.NewCatalog(sf, true)
	db := tpcd.Generate(cat, sf, 1)

	// Maintain the five aggregate dashboard views of the paper's Figure 4(b).
	sys := core.NewSystem(cat, core.Options{})
	for _, v := range tpcd.ViewSet5(cat, true) {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			log.Fatal(err)
		}
	}
	updated := []string{"customer", "orders", "lineitem"}
	plan := sys.OptimizeGreedy(diff.UniformPercent(cat, updated, 5), greedy.DefaultConfig())
	rt := plan.NewRuntime(db)

	// Turn on serving BEFORE refreshing concurrently: from here on, refresh
	// publishes each refresh batch as an immutable snapshot.
	rt.EnableServing(core.ServeOptions{CacheBudget: 32 << 20})

	queries := []string{
		// Identical to the rev_by_custnation view: answered from its
		// maintained rows.
		`SELECT customer.c_nationkey, SUM(lineitem.l_extendedprice) AS revenue, COUNT(*)
		 FROM lineitem, orders, customer
		 WHERE lineitem.l_orderkey = orders.o_orderkey
		   AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255
		 GROUP BY customer.c_nationkey`,
		// Shares the lineitem⋈orders backbone with every view.
		`SELECT * FROM lineitem, orders
		 WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < 255`,
		// Covered by nothing materialized: a candidate for the dynamic cache.
		`SELECT supplier.s_nationkey, COUNT(*) FROM supplier GROUP BY supplier.s_nationkey`,
	}

	// Readers hammer the query mix while the writer applies three nightly
	// update batches.
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if _, err := rt.Query(queries[(i+w)%len(queries)]); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	for night := 1; night <= 3; night++ {
		tpcd.LogUniformUpdates(cat, db, updated, 5, int64(night))
		rt.Refresh()
	}
	done.Store(true)
	wg.Wait()

	if err := rt.Verify(); err != nil {
		log.Fatal(err)
	}
	st := rt.ServeStats()
	epoch := rt.Snapshots().Current().Epoch()
	fmt.Printf("served %d queries across %d snapshot epochs while refreshing 3 nights\n",
		st.Queries, epoch+1)
	fmt.Printf("result-cache hit rate: %.0f%% (%d hits, %d refills after refresh batches)\n",
		100*float64(st.CacheHits)/float64(st.Queries), st.CacheHits, st.Refills)
	fmt.Print(rt.CacheReport())
	fmt.Println("all views verified exact against recomputation")
}
