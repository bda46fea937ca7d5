// Command mvserve demonstrates the query-serving layer: it generates a
// TPC-D database, optimizes and materializes the ten-view workload, then
// runs N reader goroutines issuing SQL queries concurrently with a writer
// that keeps refreshing the views. Readers execute against epoch-based
// snapshots (storage.Snapshot), so every answer reflects exactly one
// committed refresh batch while the writer proceeds without blocking; hot
// query results are admitted into a benefit-based dynamic cache.
//
// Usage:
//
//	mvserve -sf 0.002 -pct 4 -readers 8 -cycles 3 -cache 64 -check -partitions 4
//	mvserve -adapt -sf 0.002 -readers 4 -cycles 3 -seed 11
//	mvserve -wal-dir -fsync -readers 4 -stream-batches 3
//
// -partitions turns on partition-parallel operators for both the refresh
// writer and every served query (<=1 = sequential operators); answers are
// identical at any setting.
//
// -check retains every published snapshot and verifies each sampled answer
// against a full recomputation at its epoch (slower; it is how the serving
// isolation guarantee is tested).
//
// -adapt switches to the drifting-workload experiment: the query mix shifts
// mid-run, the runtime re-selects its materialized set from the observed
// workload (core.Runtime.Adapt) and hot-swaps it at an epoch boundary, and
// the run is reported against a static baseline tuned for the initial mix.
//
// -feedback switches to the feedback-driven costing experiment: update
// batches are skewed (foreign keys concentrated on the lowest -hot-frac of
// the key space) so differential cardinalities drift from the histogram
// estimates, and the skewed drifting workload is run three times — static
// plan, adaptive with static estimates, adaptive with observed cardinalities
// correcting every re-selection round — reporting estimation error (q-error)
// and throughput. -json writes the summary as a JSON object.
//
// -wal-dir switches to the durable serving experiment: readers query epoch
// snapshots while updates stream through the bounded ingest queue and every
// micro-batch is group-committed to a write-ahead log (in a throwaway
// directory) before its epochs publish. -fsync extends durability to
// machine crashes; -stream-batches sizes the update stream.
//
// -shards switches to the sharded scatter-gather experiment: queries are
// lowered onto a worker fleet that shards the hash partitions, epochs
// publish through the two-phase install, and answers stay byte-identical to
// single-node serving. The fleet is in-process by default; -shard-addrs
// dials running mvshard workers instead:
//
//	mvserve -shards 2 -readers 4 -cycles 2 -check
//	mvserve -shards 2 -partitions 8 -shard-addrs 127.0.0.1:7070,127.0.0.1:7071
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor (keep small: the engine is in-memory)")
	pct := flag.Float64("pct", 4, "update percentage per refresh cycle")
	readers := flag.Int("readers", 8, "concurrent query goroutines")
	cycles := flag.Int("cycles", 3, "refresh cycles the writer runs (per phase with -adapt)")
	workers := flag.Int("workers", 0, "refresh worker pool size (0 = GOMAXPROCS)")
	partitions := flag.Int("partitions", 1, "hash partitions per operator (<=1 = sequential operators)")
	cacheMB := flag.Float64("cache", 64, "dynamic result cache budget in MB (negative disables)")
	check := flag.Bool("check", false, "verify sampled answers against committed-state recomputation")
	adapt := flag.Bool("adapt", false, "drifting workload with online re-selection, vs a static baseline")
	feedback := flag.Bool("feedback", false, "feedback-driven costing experiment: skewed drifting workload, observed cardinalities correcting re-selection, vs static estimates")
	hotFrac := flag.Float64("hot-frac", 0.02, "update skew (with -feedback): inserted foreign keys draw from this lowest fraction of the key space")
	jsonOut := flag.String("json", "", "write the -feedback summary as JSON to this file")
	seed := flag.Int64("seed", 11, "data and drift seed (with -adapt)")
	walDir := flag.String("wal-dir", "", "serve over the durable streaming path; WAL lives in this directory")
	fsync := flag.Bool("fsync", false, "fsync group commits (with -wal-dir)")
	streamBatches := flag.Int("stream-batches", 3, "update batches streamed during the run (with -wal-dir)")
	shards := flag.Int("shards", 0, "serve through a scatter-gather worker fleet of this size (0 = off)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated mvshard addresses (with -shards; empty boots an in-process fleet)")
	flag.Parse()

	if *shards > 0 {
		var addrs []string
		if *shardAddrs != "" {
			addrs = strings.Split(*shardAddrs, ",")
			if len(addrs) != *shards {
				fmt.Fprintf(os.Stderr, "mvserve: %d addresses in -shard-addrs for %d shards\n", len(addrs), *shards)
				os.Exit(2)
			}
		}
		parts := *partitions
		if parts <= 1 { // the sequential-operator default picks the fleet default
			parts = 0
		}
		fmt.Printf("generating TPC-D at SF %g and serving %d readers over %d shards…\n",
			*sf, *readers, *shards)
		r := bench.ShardedServe(bench.ShardedServeConfig{
			ScaleFactor: *sf, UpdatePct: *pct,
			Readers: *readers, Cycles: *cycles,
			Shards: *shards, Partitions: parts, Addrs: addrs,
			Seed: *seed, Check: *check,
		})
		fmt.Print(r.Format())
		if !r.Verified || !r.Consistent || !r.ByteIdentical || r.Scattered == 0 {
			fmt.Fprintln(os.Stderr, "mvserve: FAILED (diverged answers, inconsistent results, or nothing scattered)")
			os.Exit(1)
		}
		return
	}

	if *walDir != "" {
		fmt.Printf("generating TPC-D at SF %g and serving %d readers over the durable ingest path…\n",
			*sf, *readers)
		r := bench.DurableServe(bench.DurableServeConfig{
			DurableConfig: bench.DurableConfig{
				ScaleFactor: *sf, UpdatePct: *pct,
				StreamBatches: *streamBatches,
				Fsync:         *fsync,
				Seed:          *seed, Dir: *walDir,
			},
			Readers:     *readers,
			CacheBudget: *cacheMB * (1 << 20),
		})
		fmt.Print(r.Format())
		if !r.Verified {
			fmt.Fprintln(os.Stderr, "mvserve: FAILED (diverged views)")
			os.Exit(1)
		}
		return
	}

	if *feedback {
		fmt.Printf("generating TPC-D at SF %g and driving a skewed drifting workload over %d readers…\n",
			*sf, *readers)
		c := bench.FeedbackExperiment(bench.AdaptiveConfig{
			ScaleFactor: *sf, UpdatePct: *pct,
			Readers: *readers, CyclesPerPhase: *cycles, Workers: *workers,
			Partitions:  *partitions,
			CacheBudget: *cacheMB * (1 << 20),
			Seed:        *seed, Check: *check,
			HotFrac: *hotFrac,
		})
		fmt.Print(c.Format())
		if *jsonOut != "" {
			data, err := c.JSON()
			if err == nil {
				err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if !c.Sound() || c.Corrected.Installs == 0 || c.Corrected.Q.QTotal == 0 {
			fmt.Fprintln(os.Stderr, "mvserve: FAILED (inconsistent results, diverged views, or feedback never reached a live plan)")
			os.Exit(1)
		}
		return
	}

	if *adapt {
		fmt.Printf("generating TPC-D at SF %g and driving a drifting workload over %d readers…\n",
			*sf, *readers)
		ad, st := bench.AdaptiveVsStatic(bench.AdaptiveConfig{
			ScaleFactor: *sf, UpdatePct: *pct,
			Readers: *readers, CyclesPerPhase: *cycles, Workers: *workers,
			Partitions:  *partitions,
			CacheBudget: *cacheMB * (1 << 20),
			Seed:        *seed, Check: *check,
		})
		fmt.Print(st.Format())
		fmt.Print(ad.Format())
		fmt.Print(ad.WorkloadReport)
		fmt.Printf("adaptive/static overall throughput: %.2fx\n", ad.TotalQPS/st.TotalQPS)
		if !ad.Verified || !ad.Consistent || !st.Verified || !st.Consistent || ad.Installs == 0 {
			fmt.Fprintln(os.Stderr, "mvserve: FAILED (inconsistent results, diverged views, or no adaptation)")
			os.Exit(1)
		}
		return
	}

	fmt.Printf("generating TPC-D at SF %g and serving %d readers against %d refresh cycles…\n",
		*sf, *readers, *cycles)
	r := bench.ConcurrentServe(bench.ServeConfig{
		ScaleFactor: *sf, UpdatePct: *pct,
		Readers: *readers, Cycles: *cycles, Workers: *workers,
		Partitions:  *partitions,
		CacheBudget: *cacheMB * (1 << 20),
		Check:       *check,
	})
	fmt.Print(r.Format())
	fmt.Print(r.CacheReport)
	if !r.Verified || !r.Consistent {
		fmt.Fprintln(os.Stderr, "mvserve: FAILED (inconsistent results or diverged views)")
		os.Exit(1)
	}
}
