// Command mvserve demonstrates the query-serving layer: it generates a
// TPC-D database, optimizes and materializes the ten-view workload, then
// runs N reader goroutines issuing SQL queries concurrently with a writer
// that keeps refreshing the views. Readers execute against epoch-based
// snapshots (storage.Snapshot), so every answer reflects exactly one
// committed refresh batch while the writer proceeds without blocking.
//
// Usage:
//
//	mvserve -sf 0.002 -pct 4 -readers 8 -cycles 3 -check
//	mvserve -adapt -sf 0.002 -readers 4 -cycles 3 -seed 11
//	mvserve -shards 2 -readers 4 -cycles 2 -check
//
// With no mode flag mvserve runs single-node serving (-shards 0): the
// configuration the sharded path pins, with the dynamic result cache off,
// and the comparison point for -shards. -workers and -cache apply to -adapt
// and -feedback only, and -partitions to -shards only; a run that would
// ignore one of them exits with status 2 instead. Operators run sequentially
// in every mode. The performance ledger
// (go run ./benchmark) is what measures serving throughput; this command
// is a demonstration and a correctness check.
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
// -shards serves through the sharded scatter-gather engine: queries are
// lowered onto a worker fleet that shards the hash partitions, epochs
// publish through the two-phase install, and answers stay byte-identical to
// single-node serving. -partitions sets the hash partitions sharded across
// the fleet (0, the default, picks 2×shards and at least 4); a count below
// -shards exits with status 2, since every shard owns at least one
// partition. The fleet is in-process by default; -shard-addrs dials running
// mvshard workers instead. The -adapt and -feedback
// experiments run single-node against a static baseline, so -shards does not
// combine with either:
//
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
	workers := flag.Int("workers", 0, "refresh worker pool size (with -adapt or -feedback; 0 = GOMAXPROCS)")
	partitions := flag.Int("partitions", 0, "hash partitions sharded across the fleet (with -shards; 0 = 2*shards, at least 4)")
	cacheMB := flag.Float64("cache", 64, "dynamic result cache budget in MB (with -adapt or -feedback; negative disables)")
	check := flag.Bool("check", false, "verify sampled answers against committed-state recomputation")
	adapt := flag.Bool("adapt", false, "drifting workload with online re-selection, vs a static baseline")
	feedback := flag.Bool("feedback", false, "feedback-driven costing experiment: skewed drifting workload, observed cardinalities correcting re-selection, vs static estimates")
	hotFrac := flag.Float64("hot-frac", 0.02, "update skew (with -feedback): inserted foreign keys draw from this lowest fraction of the key space")
	jsonOut := flag.String("json", "", "write the -feedback summary as JSON to this file")
	seed := flag.Int64("seed", 11, "data, update and drift seed")
	shards := flag.Int("shards", 0, "serve through a scatter-gather worker fleet of this size (0 = off)")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated mvshard addresses (with -shards; empty boots an in-process fleet)")
	flag.Parse()

	if *shards > 0 && (*adapt || *feedback) {
		fmt.Fprintln(os.Stderr, "mvserve: -shards does not combine with -adapt or -feedback (those experiments run single-node; no benchmark harness runs them over a fleet)")
		os.Exit(2)
	}
	// Refuse the flags the chosen mode would otherwise ignore: serving runs
	// with the cache off, and only a fleet has partitions.
	flag.Visit(func(f *flag.Flag) {
		modes := ""
		switch {
		case (f.Name == "workers" || f.Name == "cache") && !*adapt && !*feedback:
			modes = "-adapt and -feedback"
		case f.Name == "partitions" && *shards == 0:
			modes = "-shards"
		default:
			return
		}
		fmt.Fprintf(os.Stderr, "mvserve: -%s applies to %s only\n", f.Name, modes)
		os.Exit(2)
	})
	if *partitions < 0 || (*partitions > 0 && *partitions < *shards) {
		fmt.Fprintf(os.Stderr, "mvserve: -partitions %d is below -shards %d: every shard owns at least one partition (0 picks the default)\n", *partitions, *shards)
		os.Exit(2)
	}

	if *feedback {
		fmt.Printf("generating TPC-D at SF %g and driving a skewed drifting workload over %d readers…\n",
			*sf, *readers)
		c := bench.FeedbackExperiment(bench.AdaptiveConfig{
			ScaleFactor: *sf, UpdatePct: *pct,
			Readers: *readers, CyclesPerPhase: *cycles, Workers: *workers,
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

	var addrs []string
	if *shardAddrs != "" {
		addrs = strings.Split(*shardAddrs, ",")
		if len(addrs) != *shards {
			fmt.Fprintf(os.Stderr, "mvserve: %d addresses in -shard-addrs for %d shards\n", len(addrs), *shards)
			os.Exit(2)
		}
	}
	fmt.Printf("generating TPC-D at SF %g and serving %d readers against %d refresh cycles…\n",
		*sf, *readers, *cycles)
	r := bench.ShardedServe(bench.ShardedServeConfig{
		ScaleFactor: *sf, UpdatePct: *pct,
		Readers: *readers, Cycles: *cycles,
		Shards: *shards, Partitions: *partitions, Addrs: addrs,
		Seed: *seed, Check: *check,
	})
	fmt.Print(r.Format())
	if !r.Verified || !r.Consistent || !r.ByteIdentical || (*shards > 0 && r.Scattered == 0) {
		fmt.Fprintln(os.Stderr, "mvserve: FAILED (diverged answers, inconsistent results, or nothing scattered)")
		os.Exit(1)
	}
}
