package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/greedy"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// maxSamples bounds the results retained for the consistency check, so a
// long throughput run does not pin unbounded row data.
const maxSamples = 4000

// buildTenViewRuntime assembles the ten-view workload on generated data.
// Equal seeds give byte-identical databases, plans and update batches, so
// runtimes built by separate calls may be compared row by row.
func buildTenViewRuntime(sf, pct float64, seed int64) (*core.Runtime, *core.MaintenancePlan) {
	cat := tpcd.NewCatalog(sf, true)
	db := tpcd.Generate(cat, sf, seed)
	sys := core.NewSystem(cat, core.Options{})
	for _, v := range tpcd.ViewSet10(cat) {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			panic(err)
		}
	}
	u := diff.UniformPercent(cat, tpcd.UpdatedRelations(), pct)
	plan := sys.OptimizeGreedy(u, greedy.DefaultConfig())
	return plan.NewRuntime(db), plan
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

// ShardedServe measures scatter-gather serving: N reader goroutines issue
// SQL through a sharded runtime whose partitions are spread over a worker
// fleet, while one writer runs refresh cycles and two-phase installs. The
// single-node comparison point is the same runtime shape at Shards == 0
// (plain serving with the dynamic cache off, the configuration the sharded
// path pins), so aggregate q/s is comparable across shard counts and every
// sampled answer can be checked byte-for-byte against local execution.

// ShardedServeConfig parameterizes one sharded-serving run.
type ShardedServeConfig struct {
	// ScaleFactor is the TPC-D scale of the generated database.
	ScaleFactor float64
	// UpdatePct is the per-cycle update percentage.
	UpdatePct float64
	// Readers is the number of concurrent query goroutines.
	Readers int
	// Cycles is the number of refresh+install cycles the writer runs.
	Cycles int
	// Shards is the worker-fleet size; 0 runs the single-node baseline.
	Shards int
	// Partitions is the partition count sharded across the fleet (0 picks
	// shard.DefaultPartitions).
	Partitions int
	// Queries is the SQL mix; nil selects DefaultServeQueries.
	Queries []string
	// Seed drives data generation and the per-cycle update batches
	// (0 selects 11).
	Seed int64
	// Check retains history and verifies every sampled answer against a
	// from-scratch recomputation at the epoch it claims, plus a final
	// byte-for-byte comparison against the local execution path.
	Check bool
}

// ShardedServeResult is the outcome of one ShardedServe run.
type ShardedServeResult struct {
	Cfg ShardedServeConfig
	// Elapsed is the wall-clock span of the whole run.
	Elapsed time.Duration
	// RefreshTotal is the writer's cumulative refresh+install wall-clock.
	RefreshTotal time.Duration
	// Queries is the number of queries answered across all readers.
	Queries int64
	// PerReaderQPS is each reader's answered-queries-per-second.
	PerReaderQPS []float64
	// AggregateQPS sums PerReaderQPS.
	AggregateQPS float64
	// Scattered and Fallbacks count queries served by the fleet versus the
	// coordinator-local fallback (0/0 for the single-node baseline).
	Scattered, Fallbacks int64
	// Epochs is the final gate epoch.
	Epochs int64
	// CheckedSamples and DistinctStates describe the consistency check.
	CheckedSamples, DistinctStates int
	// Consistent is false if any sample diverged from its epoch's
	// recomputation (only meaningful with Cfg.Check).
	Consistent bool
	// ByteIdentical is false if a final non-aggregate answer differed from
	// local execution in row order or content (only meaningful with
	// Cfg.Check; aggregates are compared as multisets).
	ByteIdentical bool
	// Verified is the post-run Runtime.Verify outcome.
	Verified bool
}

// ShardedServe runs the sharded readers-versus-writer experiment.
func ShardedServe(cfg ShardedServeConfig) ShardedServeResult {
	if cfg.Queries == nil {
		cfg.Queries = DefaultServeQueries()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = shard.DefaultPartitions(cfg.Shards)
	}
	rt, plan := buildTenViewRuntime(cfg.ScaleFactor, cfg.UpdatePct, cfg.Seed)
	cat := plan.System.Cat

	// query answers one SQL statement; refresh publishes one update cycle.
	var query func(string) (*core.QueryResult, error)
	var refresh func() error
	var stats func() core.ShardStats
	if cfg.Shards <= 0 {
		rt.EnableServing(core.ServeOptions{CacheBudget: -1, RetainHistory: cfg.Check})
		query, refresh = rt.Query, func() error { rt.Refresh(); return nil }
		stats = func() core.ShardStats { return core.ShardStats{} }
	} else {
		sr, err := rt.EnableShardedInProc(core.ShardOptions{
			Shards: cfg.Shards, Partitions: cfg.Partitions, RetainHistory: cfg.Check,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: enable sharding: %v", err))
		}
		defer sr.Close()
		query, refresh, stats = sr.Query, sr.Refresh, sr.Stats
	}

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
				res, err := query(cfg.Queries[qi])
				if err != nil {
					panic(fmt.Sprintf("bench: sharded reader query failed: %v", err))
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
		if err := refresh(); err != nil {
			panic(fmt.Sprintf("bench: sharded refresh failed: %v", err))
		}
		refreshTotal += time.Since(t0)
	}
	done.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	st := stats()
	out := ShardedServeResult{
		Cfg: cfg, Elapsed: elapsed, RefreshTotal: refreshTotal,
		Scattered: st.Scattered, Fallbacks: st.Fallbacks,
		Epochs:        rt.Snapshots().Current().Epoch(),
		Consistent:    true,
		ByteIdentical: true,
		Verified:      rt.Verify() == nil,
	}
	for _, n := range answered {
		q := float64(n) / elapsed.Seconds()
		out.PerReaderQPS = append(out.PerReaderQPS, q)
		out.AggregateQPS += q
		out.Queries += n
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

		// Final answers through the sharded path against the local path on
		// the same runtime: byte-identical for non-aggregates (both recompute
		// under the identical plan), multiset-equal for aggregates.
		for _, sql := range cfg.Queries {
			got, err := query(sql)
			if err != nil {
				panic(fmt.Sprintf("bench: final sharded query failed: %v", err))
			}
			local, err := rt.Query(sql)
			if err != nil {
				panic(fmt.Sprintf("bench: final local query failed: %v", err))
			}
			if !storage.EqualMultiset(got.Rows, local.Rows) {
				out.ByteIdentical = false
				continue
			}
			if strings.Contains(sql, "GROUP BY") {
				continue
			}
			for r, tu := range local.Rows.Rows() {
				if !tu.Equal(got.Rows.Rows()[r]) {
					out.ByteIdentical = false
					break
				}
			}
		}
	}
	return out
}

// Format renders the sharded serving result.
func (r ShardedServeResult) Format() string {
	var b strings.Builder
	mode := fmt.Sprintf("%d shards over %d partitions", r.Cfg.Shards, r.Cfg.Partitions)
	if r.Cfg.Shards <= 0 {
		mode = "single-node baseline"
	}
	fmt.Fprintf(&b, "t-shard — sharded serving, %s (SF %g, %g%% updates, %d readers, %d cycles)\n",
		mode, r.Cfg.ScaleFactor, r.Cfg.UpdatePct, r.Cfg.Readers, r.Cfg.Cycles)
	fmt.Fprintf(&b, "  %d queries in %v (writer busy %v, gate at epoch %d)\n",
		r.Queries, r.Elapsed.Round(time.Millisecond), r.RefreshTotal.Round(time.Millisecond), r.Epochs)
	fmt.Fprintf(&b, "  aggregate: %8.1f queries/s; scattered %d, local fallbacks %d\n",
		r.AggregateQPS, r.Scattered, r.Fallbacks)
	if r.Cfg.Check {
		status := "all consistent with committed-state recomputation"
		if !r.Consistent {
			status = "INCONSISTENT RESULTS DETECTED"
		}
		fmt.Fprintf(&b, "  snapshot check: %d samples over %d (query, epoch) states — %s\n",
			r.CheckedSamples, r.DistinctStates, status)
		if r.ByteIdentical {
			b.WriteString("  final answers byte-identical to local execution\n")
		} else {
			b.WriteString("  FINAL ANSWERS DIVERGED FROM LOCAL EXECUTION\n")
		}
	}
	if r.Verified {
		b.WriteString("  all views verified exact after the run\n")
	} else {
		b.WriteString("  VERIFICATION FAILED\n")
	}
	return b.String()
}
