package bench

// Golden refresh tests on the ten-view workload: identical builds refreshed
// at several refresh-scheduler pool sizes must leave every maintained view
// byte-identical to the sequential run — ViewSet10 is all joins, whose
// maintained row order is deterministic — and exact against recomputation.
// Run under -race in CI, which also catches data races in the scheduler.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func TestTenViewParallelRefreshGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	seq := tenViewRefreshRows(t, 1)
	for _, workers := range []int{4, 0} {
		checkByteIdentical(t, "workers", workers, seq, tenViewRefreshRows(t, workers))
	}
}

// tenViewRefreshRows builds the ten-view workload at SF 0.002, runs two
// update+refresh cycles at the given pool size, checks the views against
// recomputation and returns their maintained rows.
func tenViewRefreshRows(t *testing.T, workers int) []*storage.Relation {
	t.Helper()
	const sf, pct, cycles = 0.002, 5, 2
	rt, plan := buildTenViewRuntime(sf, pct, 11)
	rt.SetWorkers(workers)
	cat := plan.System.Cat
	for c := 0; c < cycles; c++ {
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, tpcd.UpdatedRelations(), pct, int64(300+c))
		rt.Refresh()
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var out []*storage.Relation
	for _, vp := range plan.Views {
		out = append(out, rt.ViewRows(vp.View))
	}
	return out
}

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

// checkByteIdentical fails unless every view in got equals the sequential
// run's row for row.
func checkByteIdentical(t *testing.T, knob string, n int, seq, got []*storage.Relation) {
	t.Helper()
	for i, want := range seq {
		if want.Len() != got[i].Len() {
			t.Fatalf("%s=%d: view %d has %d rows, want %d", knob, n, i, got[i].Len(), want.Len())
		}
		for r, tu := range want.Rows() {
			if !tu.Equal(got[i].Rows()[r]) {
				t.Fatalf("%s=%d: view %d not byte-identical at row %d", knob, n, i, r)
			}
		}
	}
}
