package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// ConcurrentServe measures the query-serving layer under write pressure:
// N reader goroutines issue SQL queries through core.Runtime.Query while
// one writer runs full refresh cycles over the ten-view Figure-5 workload.
// Readers execute against epoch snapshots and never block the writer; with
// Check set, every collected result is verified to equal a recomputation of
// the query at the committed state its epoch names — the
// snapshot-isolation guarantee, exercised rather than assumed.

// ServeConfig parameterizes one concurrent-serving run.
type ServeConfig struct {
	// ScaleFactor is the TPC-D scale of the generated database.
	ScaleFactor float64
	// UpdatePct is the per-cycle update percentage.
	UpdatePct float64
	// Readers is the number of concurrent query goroutines.
	Readers int
	// Cycles is the number of refresh cycles the writer runs.
	Cycles int
	// Workers bounds the refresh scheduler's pool (0 = GOMAXPROCS).
	Workers int
	// Partitions configures partition-parallel operators for both refresh
	// and query execution (<=1: sequential; see core.Runtime.SetPartitions).
	Partitions int
	// CacheBudget is the serving result-cache size in bytes (0 = default).
	CacheBudget float64
	// Queries is the SQL mix; nil selects DefaultServeQueries.
	Queries []string
	// Seed drives data generation and the per-cycle update batches (0
	// selects 11, the historical default). Two runs with equal configs are
	// draw-for-draw identical.
	Seed int64
	// Check retains every published snapshot and verifies each collected
	// result against recomputation at its epoch (capped at maxSamples).
	Check bool
}

// maxSamples bounds the results retained for the consistency check, so a
// long throughput run does not pin unbounded row data.
const maxSamples = 4000

// ServeResult is the outcome of one ConcurrentServe run.
type ServeResult struct {
	Cfg ServeConfig
	// Elapsed is the wall-clock span of the whole run (readers + writer).
	Elapsed time.Duration
	// RefreshTotal is the writer's cumulative Refresh wall-clock.
	RefreshTotal time.Duration
	// Queries is the number of queries answered across all readers.
	Queries int64
	// PerReaderQPS is each reader's answered-queries-per-second.
	PerReaderQPS []float64
	// CacheHits and Refills mirror core.ServeStats.
	CacheHits, Refills int64
	// Epochs is the final snapshot epoch (refresh batches published).
	Epochs int64
	// CheckedSamples and DistinctStates describe the consistency check:
	// how many results were compared, across how many (query, epoch) pairs.
	CheckedSamples, DistinctStates int
	// Consistent is false if any result diverged from its committed-state
	// recomputation (only meaningful with Cfg.Check).
	Consistent bool
	// Verified is the post-run Runtime.Verify outcome.
	Verified bool
	// CacheReport is the dynamic result cache's session summary.
	CacheReport string
}

// DefaultServeQueries is the benchmark query mix over the ten-view
// workload: an exact view match, two shared-subexpression queries, a
// cache-friendly aggregate nothing materializes, and a tiny scan.
func DefaultServeQueries() []string {
	return []string{
		`SELECT * FROM lineitem, orders, customer
		 WHERE lineitem.l_orderkey = orders.o_orderkey
		   AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255`,
		`SELECT * FROM lineitem, orders
		 WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < 255`,
		`SELECT * FROM partsupp, supplier
		 WHERE partsupp.ps_suppkey = supplier.s_suppkey`,
		`SELECT customer.c_nationkey, SUM(lineitem.l_extendedprice) AS revenue, COUNT(*)
		 FROM lineitem, orders, customer
		 WHERE lineitem.l_orderkey = orders.o_orderkey
		   AND orders.o_custkey = customer.c_custkey AND orders.o_orderdate < 255
		 GROUP BY customer.c_nationkey`,
		`SELECT * FROM nation`,
	}
}

// ConcurrentServe runs the readers-versus-writer experiment.
func ConcurrentServe(cfg ServeConfig) ServeResult {
	if cfg.Queries == nil {
		cfg.Queries = DefaultServeQueries()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	rt, plan := buildTenViewRuntime(cfg.ScaleFactor, cfg.UpdatePct, cfg.Seed)
	rt.SetWorkers(cfg.Workers)
	rt.SetPartitions(cfg.Partitions)
	rt.EnableServing(core.ServeOptions{
		CacheBudget:   cfg.CacheBudget,
		RetainHistory: cfg.Check,
	})
	cat := plan.System.Cat

	type sample struct {
		sqlIdx int
		epoch  int64
		rows   *storage.Relation
	}
	var (
		mu      sync.Mutex
		samples []sample
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	answered := make([]int64, cfg.Readers)
	start := time.Now()
	for w := 0; w < cfg.Readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				qi := (i + w) % len(cfg.Queries)
				res, err := rt.Query(cfg.Queries[qi])
				if err != nil {
					panic(fmt.Sprintf("bench: reader query failed: %v", err))
				}
				answered[w]++
				if cfg.Check {
					mu.Lock()
					if len(samples) < maxSamples {
						samples = append(samples, sample{qi, res.Epoch, res.Rows})
					}
					mu.Unlock()
				}
			}
		}(w)
	}

	var refreshTotal time.Duration
	for c := 0; c < cfg.Cycles; c++ {
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, tpcd.UpdatedRelations(), cfg.UpdatePct, cfg.Seed+int64(500+c))
		t0 := time.Now()
		rt.Refresh()
		refreshTotal += time.Since(t0)
	}
	done.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	stats := rt.ServeStats()
	out := ServeResult{
		Cfg: cfg, Elapsed: elapsed, RefreshTotal: refreshTotal,
		Queries: stats.Queries, CacheHits: stats.CacheHits, Refills: stats.Refills,
		Epochs:      rt.Snapshots().Current().Epoch(),
		Consistent:  true,
		Verified:    rt.Verify() == nil,
		CacheReport: rt.CacheReport(),
	}
	for _, n := range answered {
		out.PerReaderQPS = append(out.PerReaderQPS, float64(n)/elapsed.Seconds())
	}

	if cfg.Check {
		cd := dag.New(cat)
		roots := make([]*dag.Equiv, len(cfg.Queries))
		for i, sql := range cfg.Queries {
			roots[i] = cd.InsertExpr(viewdef.MustParse(cat, sql))
		}
		type key struct {
			sqlIdx int
			epoch  int64
		}
		want := make(map[key]*storage.Relation)
		for _, s := range samples {
			k := key{s.sqlIdx, s.epoch}
			w, ok := want[k]
			if !ok {
				snap := rt.Snapshots().At(s.epoch)
				if snap == nil {
					out.Consistent = false
					continue
				}
				w = exec.NewExecutor(snap.Database()).EvalNode(roots[s.sqlIdx])
				want[k] = w
			}
			if !storage.EqualMultiset(s.rows, w) {
				out.Consistent = false
			}
			out.CheckedSamples++
		}
		out.DistinctStates = len(want)
	}
	return out
}

// Format renders the serving result.
func (r ServeResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t-serve — concurrent serving (10 views, SF %g, %g%% updates, %d readers, %d cycles)\n",
		r.Cfg.ScaleFactor, r.Cfg.UpdatePct, r.Cfg.Readers, r.Cfg.Cycles)
	fmt.Fprintf(&b, "  %d queries in %v (refresh writer busy %v, %d epochs published)\n",
		r.Queries, r.Elapsed.Round(time.Millisecond), r.RefreshTotal.Round(time.Millisecond), r.Epochs)
	total := 0.0
	for i, q := range r.PerReaderQPS {
		fmt.Fprintf(&b, "  reader %2d: %8.1f queries/s\n", i, q)
		total += q
	}
	fmt.Fprintf(&b, "  aggregate: %8.1f queries/s; cache hits %d (%.0f%%), refills %d\n",
		total, r.CacheHits, 100*float64(r.CacheHits)/float64(maxInt64(r.Queries, 1)), r.Refills)
	if r.Cfg.Check {
		status := "all consistent with committed-state recomputation"
		if !r.Consistent {
			status = "INCONSISTENT RESULTS DETECTED"
		}
		fmt.Fprintf(&b, "  snapshot check: %d samples over %d (query, epoch) states — %s\n",
			r.CheckedSamples, r.DistinctStates, status)
	}
	if r.Verified {
		b.WriteString("  all views verified exact after the run\n")
	} else {
		b.WriteString("  VERIFICATION FAILED\n")
	}
	return b.String()
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
