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
//	mvserve -shards 2 -readers 4 -cycles 2 -check
//
// With no mode flag mvserve runs single-node serving (-shards 0): the
// configuration the sharded path pins, with the dynamic result cache off,
// and the comparison point for -shards. Operators run sequentially. The
// performance ledger (go run ./benchmark) is what measures serving
// throughput; this command is a demonstration and a correctness check.
//
// -check retains every published snapshot and verifies each sampled answer
// against a full recomputation at its epoch (slower; it is how the serving
// isolation guarantee is tested).
//
// -shards serves through the sharded scatter-gather engine: queries are
// lowered onto a worker fleet that shards the hash partitions, epochs
// publish through the two-phase install, and answers stay byte-identical to
// single-node serving. -partitions sets the hash partitions sharded across
// the fleet (0, the default, picks 2×shards and at least 4); it applies to
// -shards only, and a run that would ignore it exits with status 2, as does
// a count below -shards, since every shard owns at least one partition. The
// fleet runs in this process.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/shard"
)

func main() {
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor (keep small: the engine is in-memory)")
	pct := flag.Float64("pct", 4, "update percentage per refresh cycle")
	readers := flag.Int("readers", 8, "concurrent query goroutines")
	cycles := flag.Int("cycles", 3, "refresh cycles the writer runs")
	partitions := flag.Int("partitions", 0, "hash partitions sharded across the fleet (with -shards; 0 = 2*shards, at least 4)")
	check := flag.Bool("check", false, "verify sampled answers against committed-state recomputation")
	seed := flag.Int64("seed", 11, "data and update seed")
	shards := flag.Int("shards", 0, "serve through a scatter-gather worker fleet of this size (0 = off)")
	flag.Parse()

	// Refuse the flag the chosen mode would otherwise ignore: only a fleet
	// has partitions.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "partitions" && *shards == 0 {
			fmt.Fprintln(os.Stderr, "mvserve: -partitions applies to -shards only")
			os.Exit(2)
		}
	})
	if *partitions < 0 || (*partitions > 0 && *partitions < *shards) {
		fmt.Fprintf(os.Stderr, "mvserve: -partitions %d is below -shards %d: every shard owns at least one partition (0 picks the default)\n", *partitions, *shards)
		os.Exit(2)
	}
	if *partitions == 0 && *shards > 0 {
		*partitions = shard.DefaultPartitions(*shards)
	}

	fmt.Printf("generating TPC-D at SF %g and serving %d readers against %d refresh cycles…\n",
		*sf, *readers, *cycles)
	r := bench.ShardedServe(bench.ShardedServeConfig{
		ScaleFactor: *sf, UpdatePct: *pct,
		Readers: *readers, Cycles: *cycles,
		Shards: *shards, Partitions: *partitions,
		Seed: *seed, Check: *check,
	})
	fmt.Print(r.Format())
	if !r.Verified || !r.Consistent || !r.ByteIdentical || (*shards > 0 && r.Scattered == 0) {
		fmt.Fprintln(os.Stderr, "mvserve: FAILED (diverged answers, inconsistent results, or nothing scattered)")
		os.Exit(1)
	}
}
