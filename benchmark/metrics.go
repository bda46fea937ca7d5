package main

// metricDef declares one metric of BENCHMARK.json. The tables below are the
// single source: `-manifest` prints BENCHMARK.json from them and the smoke
// test checks the checked-in file against them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string
}

// endToEnd are the numbers a user of the system sees, measured with tracing
// off. The driver wants every end-to-end metric from every workload, so they
// are named after the workload's one foreground operation ("op"): a refresh
// cycle, a query, or an ingest batch becoming visible (workloads.go says
// which). The ISSUE's per-operation names (refresh_ms_p50, install_ms_p50,
// recover_s, ...) are kept as per-layer diagnostics below.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "program set-up: data handed over until the first timed op could start (optimise, materialise, enable serving / open WAL / boot fleet, first-use warm-up), in a fresh process; median of five"},
	{"op_ms_p50", "ms", "lower", 0.20, "median wall-clock of the workload's foreground operation; scheduled ops are timed from their due time"},
	{"op_ms_p90", "ms", "lower", 0.25, "90th percentile of the same"},
	{"ops_per_s", "1/s", "higher", 0.20, "foreground operations completed per second (closed loop)"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "process CPU time (user+system, every goroutine) over the window per foreground operation"},
	{"alloc_kb_per_op", "KB", "lower", 0.10, "runtime.MemStats.TotalAlloc delta over the window per foreground operation"},
	{"peak_rss_mb", "MB", "lower", 0.25, "VmHWM of the benchmark process when the window and its checks are done"},
}

// perLayer are the traced run's numbers. A metric a workload's layers never
// touch is reported as 0: the layer did no work there.
var perLayer = []metricDef{
	// Foreground-op diagnostics.
	{"op_ms_p99", "ms", "lower", 0, "diagnostic tail of the foreground op (not gated)"},
	{"op_samples", "count", "higher", 0, "foreground ops in the traced part of the window"},
	{"trace.overhead_pct", "%", "lower", 0, "op_ms_p50 in the traced part of the window over the untraced first third, minus one"},
	// The workload's other operations (end-to-end in kind, but not common to
	// every workload, so they are not gated).
	{"refresh_ms_p50", "ms", "lower", 0, "Runtime.Refresh wall-clock (from due time when scheduled)"},
	{"refresh_ms_p90", "ms", "lower", 0, "same, 90th percentile"},
	{"install_ms_p50", "ms", "lower", 0, "ShardedRuntime.Install after each refresh"},
	{"core.writer_lag_ms_p50", "ms", "lower", 0, "how late the scheduled writer started its cycle"},
	{"ingest.rows_per_s", "1/s", "higher", 0, "streamed ops over time from first Ingest to FlushIngest return"},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0, "WAL bytes written per encoded tuple byte streamed"},
	{"recover_s", "s", "lower", 0, "fresh process: OpenDurable on a SIGKILLed run's directory"},
	{"core.replay_batches", "count", "lower", 0, "RecoveryInfo.ReplayedBatches of that recovery"},
	// Set-up stages.
	{"tpcd.generate_s", "s", "lower", 0, "load generation (outside setup_s)"},
	{"dag.build_ms", "ms", "lower", 0, "NewSystem + ten AddView"},
	{"greedy.select_ms", "ms", "lower", 0, "System.OptimizeGreedy"},
	{"greedy.benefit_calls", "count", "lower", 0, "greedy.Result.BenefitCalls (exact)"},
	{"diff.engine_ms", "ms", "lower", 0, "diff.NewEngineObserved + NewEval on the system DAG"},
	{"exec.materialize_ms", "ms", "lower", 0, "MaintenancePlan.NewRuntime / OpenDurable boot"},
	{"core.enable_ms", "ms", "lower", 0, "EnableServing / StartIngest / EnableShardedInProc"},
	{"core.verify_ms", "ms", "lower", 0, "post-window correctness check (outside every end-to-end metric)"},
	// Go runtime over the window.
	{"go.gc_pause_ms_per_s", "ms/s", "lower", 0, "MemStats.PauseTotalNs delta per window second"},
	{"go.gc_cycles", "count", "lower", 0, "MemStats.NumGC delta"},
	{"go.alloc_mb_per_s", "MB/s", "lower", 0, "TotalAlloc delta per window second"},
	// Serving, staged on a replica front end.
	{"viewdef.parse_us_p50", "us", "lower", 0, "viewdef.Parse per text that missed the text memo"},
	{"dag.insert_us_p50", "us", "lower", 0, "DAG.InsertExpr into the replica (unify)"},
	{"dag.equivs_end", "count", "lower", 0, "replica DAG nodes at window end"},
	{"volcano.best_us_p50", "us", "lower", 0, "Optimizer.Best on the query root, fresh memo, base materialisations"},
	{"cache.execute_root_us_p50", "us", "lower", 0, "cache.Manager.ExecuteRoot (its own Best searches included)"},
	{"exec.run_us_p50", "us", "lower", 0, "Executor.Run of the served plan on the snapshot"},
	{"core.query_glue_us_p50", "us", "lower", 0, "Runtime.Query minus the staged stages (mutex, memo, resolve, tracker)"},
	{"core.plan_share", "ratio", "lower", 0, "share of the staged query time spent before execution (parse+insert+plan)"},
	{"cache.hit_ratio", "ratio", "higher", 0, "ServeStats cache hits over queries"},
	{"cache.refills", "count", "lower", 0, "ServeStats refills"},
	// Executor probes on the final state.
	{"exec.filter_mrows_per_s", "Mrows/s", "higher", 0, "base-only selective scan of lineitem, input rows over time"},
	{"exec.join_mrows_per_s", "Mrows/s", "higher", 0, "base-only lineitem-orders join"},
	{"exec.agg_mrows_per_s", "Mrows/s", "higher", 0, "base-only group-by over lineitem"},
	{"exec.recompute_ms", "ms", "lower", 0, "Executor.EvalNode over all ten views"},
	{"exec.rows_per_cycle", "count", "lower", 0, "operator and differential output rows per cycle over the seed's first two cycles (exact for a seed)"},
	// Storage.
	{"core.refresh_inplace_ms_p50", "ms", "lower", 0, "refresh cycle with serving off"},
	{"core.refresh_cow_ms_p50", "ms", "lower", 0, "refresh cycle with serving on and no reader"},
	{"storage.cow_publish_ms_per_cycle", "ms", "lower", 0, "the difference of the two"},
	{"storage.union_cow_us_per_krow", "us", "lower", 0, "UnionCOW of a cycle-sized delta onto lineitem, per 1000 delta rows"},
	{"storage.minus_cow_us_per_krow", "us", "lower", 0, "MinusCOW likewise"},
	{"storage.publish_us", "us", "lower", 0, "SnapshotStore.PublishState on a scratch store"},
	{"storage.colview_build_ms", "ms", "lower", 0, "cold ColView + key hashes on a lineitem clone"},
	// WAL and ingest.
	{"wal.append_us_p50", "us", "lower", 0, "Log.AppendBatch (fsync, 2 ms window) of a cycle-sized batch on a scratch log"},
	{"wal.encode_mb_per_s", "MB/s", "higher", 0, "wal.EncodeDelta"},
	{"wal.appends_per_sync", "ratio", "higher", 0, "DurableStats().WAL appends over fsyncs"},
	{"wal.commit_wait_ms_mean", "ms", "lower", 0, "mean group-commit wait per append"},
	{"wal.dir_mb", "MB", "lower", 0, "WAL directory size at window end"},
	{"wal.scan_mb_per_s", "MB/s", "higher", 0, "wal.ScanBatches over the run's directory"},
	{"ingest.batch_rows_mean", "count", "higher", 0, "streamed ops per WAL append"},
	{"ingest.blocked_share", "ratio", "lower", 0, "share of the producer's batch time spent inside Runtime.Ingest"},
	{"ingest.shed", "count", "lower", 0, "ingest.Stats.Shed"},
	// Sharding.
	{"shard.slice_ms", "ms", "lower", 0, "SliceOf over one install's changed relations, all shards"},
	{"shard.encode_stage_ms", "ms", "lower", 0, "EncodeStage of those requests"},
	{"shard.decode_stage_ms", "ms", "lower", 0, "DecodeStage of the encoded requests"},
	{"shard.stage_mb_per_install", "MB", "lower", 0, "encoded stage bytes of one install"},
	{"shard.worker_stage_ms", "ms", "lower", 0, "Worker.Stage on a scratch worker with a stage log"},
	{"shard.commit_us", "us", "lower", 0, "Worker.Commit on it"},
	{"shard.stage_log_mb", "MB", "lower", 0, "the fleet's stage-log size at window end"},
	{"shard.lower_us_p50", "us", "lower", 0, "shard.Lower of the served plan"},
	{"shard.scatter_us_p50", "us", "lower", 0, "Coordinator.Scatter"},
	{"shard.scattered_ratio", "ratio", "higher", 0, "ShardStats scattered over scattered plus fallbacks"},
}
