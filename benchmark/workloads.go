package main

// workloads is the benchmark's fixed matrix. Each stresses different layers,
// so that for every optimisation one workload exercises its mechanism and
// another bypasses it (README.md has the full table and the predictions).
var workloads = []*workloadDef{
	{
		name:  "refresh_batch",
		op:    "one Runtime.Refresh cycle of a 5 % balanced update batch, in place (SF 0.01, one writer, no reader)",
		why:   "the paper's scenario: exec kernels and the refresh scheduler do nearly all the work; parse, planning, cache, WAL and shard do none",
		setup: setupRefreshBatch,
	},
	{
		name:  "serve_plan",
		op:    "one Runtime.Query of a small-answer text: 70 % repeated, 20 % respelled, 10 % new literals (SF 0.005, two closed-loop readers, no writer)",
		why:   "parse, DAG unify, Volcano search, cache admission and the planning mutex dominate; exec and storage do little, so an executor change should not move it",
		setup: setupServePlan,
	},
	{
		name:  "serve_refresh",
		op:    "one Runtime.Query of a join or aggregate beside a writer refreshing a 5 % batch every 150 ms (SF 0.01, one closed-loop reader)",
		why:   "reads beside writes on the same layers: exec runs queries and differentials at once, storage pays copy-on-write and publish, the cache is invalidated 16 epochs a cycle",
		setup: setupServeRefresh,
	},
	{
		name:  "durable_ingest",
		op:    "one balanced 2 % batch streamed through Runtime.Ingest until FlushIngest returns: logged with fsync, refreshed, published (SF 0.01, one producer)",
		why:   "wal and ingest do work no other workload touches; a SIGKILLed child and a fresh recovery check that acknowledged batches survive",
		setup: setupDurableIngest,
	},
	{
		name:  "shard_serve",
		op:    "one ShardedRuntime.Query of a scatterable join over 2 in-process shards beside a writer doing Refresh then Install every 500 ms (SF 0.01, one closed-loop reader)",
		why:   "shard slice, encode, stage, gate, scatter and gather do most of the work; prices sharding overhead at the recorded core count, not scaling",
		setup: setupShardServe,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
