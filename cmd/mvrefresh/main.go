// Command mvrefresh demonstrates the execution half of the system: it
// generates a TPC-D database at a small scale factor, optimizes maintenance
// for a workload, materializes the chosen results, simulates nightly update
// batches, refreshes the views with the optimizer's plans, verifies each
// refresh against full recomputation, and reports wall-clock timings for
// incremental maintenance versus recomputation.
//
// Usage:
//
//	mvrefresh -sf 0.002 -pct 5 -nights 3 -workload set5agg -workers 4
//	mvrefresh -wal-dir /tmp/mvwal -fsync -nights 3
//
// -workers bounds the refresh scheduler's worker pool (0 = GOMAXPROCS,
// 1 = sequential): independent differentials of an update step run side by
// side, each operator on one goroutine. Maintained results are identical at
// any setting.
//
// -feedback records every observed operator cardinality against its
// optimizer estimate and prints a per-night estimation-error (q-error)
// summary; it changes no plan and no result. Default off: the refresh is
// byte-identical to a run without the flag.
//
// -wal-dir switches the nightly batches onto the durable streaming path:
// updates flow through the bounded ingest queue, every micro-batch is
// group-committed to a write-ahead log in that directory before its epochs
// publish, and the state is snapshot-spilled so a later run (or mvrecover)
// can rebuild it. Re-running with the same -wal-dir recovers first, then
// continues ingesting. -fsync extends durability to machine crashes; the
// remaining flags tune the micro-batch bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor (keep small: the engine is in-memory)")
	pct := flag.Float64("pct", 5, "update percentage per night")
	nights := flag.Int("nights", 3, "number of refresh cycles")
	workload := flag.String("workload", "agg4", "workload: join4 agg4 set5 set5agg")
	seed := flag.Int64("seed", 1, "data generator seed")
	workers := flag.Int("workers", 0, "refresh worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	feedback := flag.Bool("feedback", false, "record observed cardinalities and report per-night estimation error (q-error)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory; enables the durable streaming path")
	fsync := flag.Bool("fsync", false, "fsync group commits (with -wal-dir): durable against machine crashes")
	batchRows := flag.Int("batch-rows", 2048, "max ops per refresh micro-batch (with -wal-dir)")
	batchWait := flag.Duration("batch-wait", 2*time.Millisecond, "max linger forming a micro-batch (with -wal-dir); the end-of-night flush cuts it short")
	flag.Parse()

	cat := tpcd.NewCatalog(*sf, true)
	fmt.Printf("generating TPC-D at SF %g…\n", *sf)
	db := tpcd.Generate(cat, *sf, *seed)

	sys := core.NewSystem(cat, core.Options{})
	var views []tpcd.NamedView
	switch *workload {
	case "join4":
		views = []tpcd.NamedView{{Name: "join4", Def: tpcd.ViewJoin4(cat)}}
	case "agg4":
		views = []tpcd.NamedView{{Name: "agg4", Def: tpcd.ViewAgg4(cat)}}
	case "set5":
		views = tpcd.ViewSet5(cat, false)
	case "set5agg":
		views = tpcd.ViewSet5(cat, true)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	for _, v := range views {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	updated := []string{"customer", "orders", "lineitem"}
	u := diff.UniformPercent(cat, updated, *pct)
	plan := sys.OptimizeGreedy(u, greedy.DefaultConfig())
	fmt.Print(plan.Report())

	if *walDir != "" {
		durableNights(plan, db, cat, updated, durableFlags{
			dir: *walDir, fsync: *fsync,
			rows: *batchRows, wait: *batchWait,
			pct: *pct, seed: *seed, nights: *nights,
		})
		return
	}

	rt := plan.NewRuntime(db)
	rt.SetWorkers(*workers)
	if *feedback {
		// Telemetry only: the per-night q-error shows how far the static
		// estimates drift as batches accumulate. Default off keeps plans and
		// timings byte-identical to earlier releases.
		rt.EnableFeedbackObserver()
	}
	fmt.Printf("materialized %d results (refresh workers: %d, 0 = GOMAXPROCS)\n\n",
		len(plan.Eval.MS.Fulls.Full), *workers)

	for night := 1; night <= *nights; night++ {
		tpcd.LogUniformUpdates(cat, db, updated, *pct, *seed+int64(night))

		start := time.Now()
		rt.Refresh()
		refreshTime := time.Since(start)

		start = time.Now()
		if err := rt.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "night %d: VERIFICATION FAILED: %v\n", night, err)
			os.Exit(1)
		}
		verifyTime := time.Since(start) // verification recomputes every view

		fmt.Printf("night %d: incremental refresh %v, full recomputation (verify) %v",
			night, refreshTime.Round(time.Millisecond), verifyTime.Round(time.Millisecond))
		if verifyTime > 0 {
			fmt.Printf("  (%.1fx)", float64(verifyTime)/float64(refreshTime))
		}
		fmt.Println(" — verified exact")
		if *feedback {
			st := rt.FeedbackStats()
			fmt.Printf("         estimation error: q-error median %.2f, p90 %.2f, max %.1f over %d estimates (%d observed cardinalities)\n",
				st.QMedian, st.QP90, st.QMax, st.QCount, st.Observations)
			rt.Feedback().ResetQ() // per-night windows
		}
	}
}

// durableFlags carries the -wal-dir flag set into the durable path.
type durableFlags struct {
	dir    string
	fsync  bool
	rows   int
	wait   time.Duration
	pct    float64
	seed   int64
	nights int
}

// durableNights runs the nightly batches through the WAL-backed streaming
// path: recover (or anchor) the directory, then stream each night's batch
// through the bounded queue, flushing and verifying at night boundaries.
func durableNights(plan *core.MaintenancePlan, db *storage.Database, cat *catalog.Catalog, updated []string, f durableFlags) {
	rt, info, err := plan.OpenDurable(db, core.DurableOptions{
		Dir:   f.dir,
		Fsync: f.fsync,
		Queue: ingest.Config{MaxBatchRows: f.rows, MaxBatchWait: f.wait},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if info.Recovered {
		fmt.Printf("recovered from %s: spill at batch %d (epoch %d), %d batches replayed, epoch %d\n",
			f.dir, info.SpillBatch, info.SpillEpoch, info.ReplayedBatches, info.Epoch)
	} else {
		fmt.Printf("fresh WAL directory %s anchored (fsync: %v)\n", f.dir, f.fsync)
	}
	if err := rt.StartIngest(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for night := 1; night <= f.nights; night++ {
		// Seed each night's stream from the published epoch: epochs advance
		// with every applied micro-batch and are persisted in the manifest,
		// so no re-run over this directory can reuse a seed an earlier run
		// already generated fresh-key inserts with. (A LastBatch-derived
		// base could collide across runs when a run produces fewer
		// micro-batches than nights.) The +1 keeps the fresh-boot night off
		// the base generator's seed.
		s := tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(),
			updated, f.pct, f.seed+1+rt.DurableStats().Epoch)
		start := time.Now()
		ops := 0
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			if err := rt.Ingest(op); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			ops++
		}
		if err := rt.FlushIngest(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ingestTime := time.Since(start)

		start = time.Now()
		if err := rt.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "night %d: VERIFICATION FAILED: %v\n", night, err)
			os.Exit(1)
		}
		verifyTime := time.Since(start)
		st := rt.DurableStats()
		fmt.Printf("night %d: streamed %d ops in %v (staleness %v, commit latency %v), verify %v — verified exact\n",
			night, ops, ingestTime.Round(time.Millisecond),
			st.Staleness.Round(time.Microsecond), st.AvgCommitLatency.Round(time.Microsecond),
			verifyTime.Round(time.Millisecond))
	}
	st := rt.DurableStats()
	fmt.Printf("durable: %d batches, %d fsyncs, %d spills, epoch %d\n",
		st.WAL.Appends, st.WAL.Syncs, st.Spills, st.Epoch)
	if err := rt.CloseDurable(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
