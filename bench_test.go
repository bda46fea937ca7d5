package repro

// Benchmarks regenerating every table and figure of the paper's performance
// study (§7). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes one full experiment per iteration and reports the
// paper's headline numbers as custom metrics: plan costs (in cost-model
// seconds) for Greedy and NoGreedy at the lowest and highest update
// percentages, so the figure's shape is visible straight from the benchmark
// output. The correspondence to the paper is recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

func reportSeries(b *testing.B, s *bench.Series) {
	b.Helper()
	last := len(s.X) - 1
	b.ReportMetric(s.NoGreedy[0], "noGreedy@1%")
	b.ReportMetric(s.Greedy[0], "greedy@1%")
	b.ReportMetric(s.NoGreedy[0]/s.Greedy[0], "ratio@1%")
	b.ReportMetric(s.NoGreedy[last], "noGreedy@80%")
	b.ReportMetric(s.Greedy[last], "greedy@80%")
	b.ReportMetric(s.NoGreedy[last]/s.Greedy[last], "ratio@80%")
}

// BenchmarkFig3aStandaloneJoin regenerates Figure 3(a): maintaining a
// stand-alone four-relation join view.
func BenchmarkFig3aStandaloneJoin(b *testing.B) {
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		s = bench.Figure3a()
	}
	reportSeries(b, s)
}

// BenchmarkFig3bStandaloneAgg regenerates Figure 3(b): the same view with
// aggregation.
func BenchmarkFig3bStandaloneAgg(b *testing.B) {
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		s = bench.Figure3b()
	}
	reportSeries(b, s)
}

// BenchmarkFig4aViewSet regenerates Figure 4(a): five related views without
// aggregation.
func BenchmarkFig4aViewSet(b *testing.B) {
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		s = bench.Figure4a()
	}
	reportSeries(b, s)
}

// BenchmarkFig4bViewSetAgg regenerates Figure 4(b): five aggregate views.
func BenchmarkFig4bViewSetAgg(b *testing.B) {
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		s = bench.Figure4b()
	}
	reportSeries(b, s)
}

// BenchmarkFig5aLargeSet regenerates Figure 5(a): ten views with predefined
// primary-key indexes.
func BenchmarkFig5aLargeSet(b *testing.B) {
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		s = bench.Figure5a()
	}
	reportSeries(b, s)
}

// BenchmarkFig5bLargeSetNoIndex regenerates Figure 5(b): the same ten views
// with no initial indexes; Greedy must choose them.
func BenchmarkFig5bLargeSetNoIndex(b *testing.B) {
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		s = bench.Figure5b()
	}
	reportSeries(b, s)
}

// BenchmarkOptimizationTime regenerates §7.2 "Cost of Optimization": the
// wall-clock of one Greedy run on the ten-view workload (the paper reports
// 31 s on a 2000-era UltraSparc; see EXPERIMENTS.md for ours).
func BenchmarkOptimizationTime(b *testing.B) {
	var r bench.OptTimeResult
	for i := 0; i < b.N; i++ {
		r = bench.OptimizationTime()
	}
	b.ReportMetric(float64(r.Elapsed.Microseconds()), "optimize-µs")
	b.ReportMetric(float64(r.BenefitCalls), "benefit-calls")
	b.ReportMetric(r.SavingsPerRun, "savings-s/refresh")
}

// BenchmarkTempVsPermanent regenerates §7.2 "Temporary vs. Permanent
// Materialization": the split of chosen results between recompute-cheaper
// (temporary) and maintain-cheaper (permanent), by update-rate band.
func BenchmarkTempVsPermanent(b *testing.B) {
	var m bench.MatSplit
	for i := 0; i < b.N; i++ {
		m = bench.TempVsPermanent()
	}
	b.ReportMetric(float64(m.Temporary), "temporary")
	b.ReportMetric(float64(m.Permanent), "permanent")
	b.ReportMetric(float64(m.LowPerm), "perm@1-5%")
	b.ReportMetric(float64(m.HighPerm), "perm@50-90%")
}

// BenchmarkBufferSize regenerates §7.2 "Effect of Buffer Size": the
// five-view workload at 8000 versus 1000 buffer blocks.
func BenchmarkBufferSize(b *testing.B) {
	var r bench.BufferResult
	for i := 0; i < b.N; i++ {
		r = bench.BufferComparison()
	}
	b.ReportMetric(r.BigNoGreedy[0]/r.BigGreedy[0], "ratio@1%/8000blk")
	b.ReportMetric(r.SmallNoGreedy[0]/r.SmallGreedy[0], "ratio@1%/1000blk")
}

// BenchmarkExecutedRefresh goes beyond the paper: it executes the
// five-aggregate-view workload's maintenance plans on generated TPC-D data
// (SF 0.005) and reports real wall-clock per refresh cycle, with every view
// verified against recomputation.
func BenchmarkExecutedRefresh(b *testing.B) {
	var r bench.ExecutedResult
	for i := 0; i < b.N; i++ {
		r = bench.ExecutedRefresh(0.005, 5, 2)
	}
	if !r.Verified {
		b.Fatalf("maintained views diverged from recomputation")
	}
	b.ReportMetric(float64(r.GreedyRefresh.Milliseconds()), "greedy-ms")
	b.ReportMetric(float64(r.NoGreedyRefresh.Milliseconds()), "nogreedy-ms")
	b.ReportMetric(float64(r.FullRecompute.Milliseconds()), "recompute-ms")
}

// BenchmarkAblation quantifies the §6.2 optimizations (incremental cost
// update, monotonicity) and DAG subsumption on the ten-view workload.
func BenchmarkAblation(b *testing.B) {
	var r bench.AblationResult
	for i := 0; i < b.N; i++ {
		r = bench.Ablation()
	}
	b.ReportMetric(float64(r.NaiveCalls)/float64(r.LazyCalls), "monotonicity-call-reduction")
	b.ReportMetric(float64(r.NoIncTime)/float64(r.LazyTime), "incremental-speedup")
	b.ReportMetric(r.LazyCost/r.NaiveCost, "lazy/naive-cost")
}

// BenchmarkAdaptiveServe measures online re-selection under a drifting
// workload (2 readers, 2 phases × 2 cycles, SF 0.002): the runtime re-runs
// greedy selection against the observed query/update rates each cycle and
// hot-swaps the materialized set at epoch boundaries. Reported: overall and
// final-phase throughput and the number of installed swaps (≥1 means the
// drift actually changed the stored set).
func BenchmarkAdaptiveServe(b *testing.B) {
	var r bench.AdaptiveResult
	for i := 0; i < b.N; i++ {
		r = bench.AdaptiveServe(bench.AdaptiveConfig{
			ScaleFactor: 0.002, UpdatePct: 4,
			Readers: 2, CyclesPerPhase: 2, Seed: 11,
			Adaptive: true,
		})
		if !r.Verified {
			b.Fatalf("maintained views diverged from recomputation")
		}
	}
	b.ReportMetric(r.TotalQPS, "queries/s")
	b.ReportMetric(r.PhaseQPS[len(r.PhaseQPS)-1], "queries/s-last-phase")
	b.ReportMetric(float64(r.Installs), "swaps")
}

// BenchmarkShardedServe measures scatter-gather serving as the worker fleet
// grows: the ten-view workload (SF 0.002, 4 readers, 2 cycles) served at
// shards ∈ {1, 2, 4} over an in-process fleet, against the single-node
// configuration the sharded path pins (dynamic cache off). The full check is
// on, so every run also proves its sampled answers consistent with their
// epochs and its final answers byte-identical to local execution. Reported
// per fleet size: aggregate q/s, queries scattered vs answered by the
// coordinator-local fallback, and the writer's refresh+install time per
// cycle.
func BenchmarkShardedServe(b *testing.B) {
	for _, shards := range []int{0, 1, 2, 4} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "single-node"
		}
		b.Run(name, func(b *testing.B) {
			var r bench.ShardedServeResult
			for i := 0; i < b.N; i++ {
				r = bench.ShardedServe(bench.ShardedServeConfig{
					ScaleFactor: 0.002, UpdatePct: 4,
					Readers: 4, Cycles: 2, Shards: shards,
					Seed: 11, Check: true,
				})
				if !r.Verified || !r.Consistent {
					b.Fatalf("sharded serving diverged from recomputation")
				}
				if !r.ByteIdentical {
					b.Fatalf("sharded answers not byte-identical to local execution")
				}
			}
			b.ReportMetric(r.AggregateQPS, "queries/s")
			b.ReportMetric(float64(r.Scattered), "scattered")
			b.ReportMetric(float64(r.Fallbacks), "fallbacks")
			b.ReportMetric(r.RefreshTotal.Seconds()*1000/float64(r.Cfg.Cycles), "refresh-ms/cycle")
		})
	}
}
