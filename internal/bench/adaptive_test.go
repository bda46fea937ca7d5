package bench

import "testing"

// TestAdaptiveServeSmoke is the CI-sized drifting-workload run: adaptation
// must change the materialized set at least once, every sampled result must
// match recomputation at its claimed epoch, and the maintained state must
// verify exact afterwards. Throughput versus static selection is measured
// (and recorded in EXPERIMENTS.md) rather than asserted, since CI machines
// make wall-clock comparisons flaky.
func TestAdaptiveServeSmoke(t *testing.T) {
	r := AdaptiveServe(AdaptiveConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 2, CyclesPerPhase: 2, Seed: 11,
		Adaptive: true, Check: true,
	})
	if !r.Verified {
		t.Fatal("maintained views diverged from recomputation")
	}
	if !r.Consistent {
		t.Fatal("a sampled result diverged from its step-boundary recomputation")
	}
	if r.CheckedSamples == 0 {
		t.Fatal("no samples checked")
	}
	if r.Installs == 0 {
		t.Fatalf("drifting workload should install at least one swap: %d rounds, %d skipped",
			r.Rounds, r.Skipped)
	}
	if len(r.PhaseQPS) != 2 || r.Queries == 0 {
		t.Fatalf("missing phase throughput: %+v", r.PhaseQPS)
	}
	t.Logf("%s", r.Format())
}

func TestAdaptiveVsStaticSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run is twice the work")
	}
	ad, st := AdaptiveVsStatic(AdaptiveConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 2, CyclesPerPhase: 2, Seed: 11, Check: true,
	})
	for _, r := range []AdaptiveResult{ad, st} {
		if !r.Verified || !r.Consistent {
			t.Fatalf("run failed verification (adaptive=%v)", r.Cfg.Adaptive)
		}
	}
	if ad.Installs == 0 {
		t.Fatal("adaptive run never swapped")
	}
	if st.Installs != 0 || st.Rounds != 0 {
		t.Fatal("static run must not adapt")
	}
	t.Logf("adaptive %0.1f q/s vs static %0.1f q/s overall", ad.TotalQPS, st.TotalQPS)
}

// TestAdaptiveServeReproducible: readers issue a fixed number of reads per
// refresh cycle, so the workload tracker sees the same counts at a seed and
// two runs install the same number of swaps, however fast the reads run.
func TestAdaptiveServeReproducible(t *testing.T) {
	cfg := AdaptiveConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 2, CyclesPerPhase: 2, Seed: 12,
		Adaptive: true,
	}
	a, b := AdaptiveServe(cfg), AdaptiveServe(cfg)
	if a.Installs != b.Installs || a.Rounds != b.Rounds || a.Skipped != b.Skipped || a.Queries != b.Queries {
		t.Fatalf("two runs at seed 12 diverge: %d/%d installs, %d/%d rounds, %d/%d skipped, %d/%d queries",
			a.Installs, b.Installs, a.Rounds, b.Rounds, a.Skipped, b.Skipped, a.Queries, b.Queries)
	}
	if a.Installs == 0 {
		t.Fatal("the drifting workload installed no swap; the comparison tests nothing")
	}
	t.Logf("%d swaps installed in both runs", a.Installs)
}
