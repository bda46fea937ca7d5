package bench

// Golden refresh tests on the ten-view workload: identical builds refreshed
// at several refresh-scheduler pool sizes, and at several operator partition
// counts, must leave every maintained view byte-identical to the sequential
// run — ViewSet10 is all joins, whose maintained row order is deterministic —
// and exact against recomputation. Run under -race in CI, which also catches
// data races in the scheduler and the partitioned operators.

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/tpcd"
)

func TestTenViewParallelRefreshGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	seq := tenViewRefreshRows(t, 1, 1)
	for _, workers := range []int{4, 0} {
		checkByteIdentical(t, "workers", workers, seq, tenViewRefreshRows(t, workers, 1))
	}
}

func TestTenViewPartitionedRefreshGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates TPC-D data")
	}
	seq := tenViewRefreshRows(t, 1, 1)
	for _, partitions := range []int{4, 7} {
		checkByteIdentical(t, "partitions", partitions, seq, tenViewRefreshRows(t, 1, partitions))
	}
}

// tenViewRefreshRows builds the ten-view workload at SF 0.002, runs two
// update+refresh cycles at the given pool size and partition count, checks
// the views against recomputation and returns their maintained rows.
func tenViewRefreshRows(t *testing.T, workers, partitions int) []*storage.Relation {
	t.Helper()
	const sf, pct, cycles = 0.002, 5, 2
	rt, plan := buildTenViewRuntime(sf, pct, 11)
	rt.SetWorkers(workers)
	rt.SetPartitions(partitions)
	cat := plan.System.Cat
	for c := 0; c < cycles; c++ {
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, tpcd.UpdatedRelations(), pct, int64(300+c))
		rt.Refresh()
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("workers=%d partitions=%d: %v", workers, partitions, err)
	}
	var out []*storage.Relation
	for _, vp := range plan.Views {
		out = append(out, rt.ViewRows(vp.View))
	}
	return out
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
