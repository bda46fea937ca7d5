package exec_test

// The executable form of "delta-sized": an in-place refresh cycle's work must
// follow the size of the update batch, not of the stored relations. The guard
// refreshes the ten-view TPC-D workload at two base sizes under the same
// absolute batch and bounds the growth of allocated bytes per cycle;
// BenchmarkRefreshCycle is the same cycle under the benchmark driver, for
// CPU and allocation profiles.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/tpcd"
)

// refreshStack is the ten-view runtime over generated data plus the ledger's
// kind of update batch: per updated relation, pct % fresh-key inserts
// (tpcd.NewUpdateStream's) and as many deletes of existing rows, so relation
// sizes stay put.
type refreshStack struct {
	rt    *core.Runtime
	rels  []string
	batch int64
}

func newRefreshStack(tb testing.TB, sf float64, rels []string) *refreshStack {
	cat := tpcd.NewCatalog(sf, true)
	db := tpcd.Generate(cat, sf, 11)
	sys := core.NewSystem(cat, core.Options{})
	for _, v := range tpcd.ViewSet10(cat) {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			tb.Fatal(err)
		}
	}
	plan := sys.OptimizeGreedy(diff.UniformPercent(cat, tpcd.UpdatedRelations(), 5), greedy.DefaultConfig())
	return &refreshStack{rt: plan.NewRuntime(db), rels: rels}
}

// stage logs the next cycle's batch as pending deltas.
func (s *refreshStack) stage(pct float64) {
	s.batch++
	db := s.rt.Ex.DB
	rng := rand.New(rand.NewSource(s.batch))
	st := tpcd.NewUpdateStream(s.rt.Plan.System.Cat, db, s.rels, pct, s.batch)
	ins := map[string]int{}
	for op, ok := st.Next(); ok; op, ok = st.Next() {
		if !op.Del {
			db.LogInsert(op.Rel, op.Tuple)
			ins[op.Rel]++
		}
	}
	for _, name := range s.rels {
		rows := db.MustRelation(name).Rows()
		for _, j := range rng.Perm(len(rows))[:ins[name]] {
			db.LogDelete(name, rows[j].Clone())
		}
	}
}

// refreshBytes returns the bytes an in-place Refresh of a pct % batch
// allocates (staging the batch is excluded) once the stack is warm. Fresh-key
// rows match less of the views than the rows they replace, so the
// differentials thin out as batches accumulate, and faster at a higher pct:
// the warm-up cycles (lazy view builds, first array growth) therefore use
// batches too small to move the data, and one cycle is measured. The batch
// leaves out region and nation, whose rows join a fixed share of every
// relation below them (their differentials grow with the base by
// definition), and supplier, too small for the warm-up batch to reach.
func refreshBytes(t *testing.T, sf, pct float64) uint64 {
	s := newRefreshStack(t, sf, tpcd.UpdatedRelations()[3:])
	for i := 0; i < 3; i++ {
		s.stage(0.5)
		s.rt.Refresh()
	}
	s.stage(pct)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	s.rt.Refresh()
	runtime.ReadMemStats(&ms)
	if err := s.rt.Verify(); err != nil {
		t.Fatal(err)
	}
	return ms.TotalAlloc - before
}

func TestRefreshAllocationFollowsDelta(t *testing.T) {
	small := refreshBytes(t, 0.002, 10)
	large := refreshBytes(t, 0.004, 5)
	t.Logf("bytes per in-place cycle: %d at SF 0.002, %d at SF 0.004 (same batch)", small, large)
	if float64(large) > 1.25*float64(small) {
		t.Errorf("refresh allocation grew %.2fx when the base doubled under the same batch; want <= 1.25x",
			float64(large)/float64(small))
	}
}

func BenchmarkRefreshCycle(b *testing.B) {
	s := newRefreshStack(b, 0.01, tpcd.UpdatedRelations())
	for i := 0; i < 2; i++ {
		s.stage(5)
		s.rt.Refresh()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.stage(5)
		b.StartTimer()
		s.rt.Refresh()
	}
}

// servingRefreshBytes is refreshBytes at SF 0.004 and a 5 % batch, with
// serving enabled before the first cycle when serve is set.
func servingRefreshBytes(t *testing.T, serve bool) uint64 {
	s := newRefreshStack(t, 0.004, tpcd.UpdatedRelations()[3:])
	if serve {
		s.rt.EnableServing(core.ServeOptions{})
	}
	for i := 0; i < 3; i++ {
		s.stage(0.5)
		s.rt.Refresh()
	}
	s.stage(5)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	s.rt.Refresh()
	runtime.ReadMemStats(&ms)
	if err := s.rt.Verify(); err != nil {
		t.Fatal(err)
	}
	return ms.TotalAlloc - before
}

// TestServingRefreshCopiesOncePerBatch bounds what a snapshot store costs a
// refresh cycle. A serving cycle copies a relation only at its first merge of
// the batch, when the previous epoch's snapshot holds it; the batch's later
// merges write that copy in place. The remaining excess over the in-place
// cycle is that one copy per touched relation per batch, which tombstoned
// deletes (leaving the compacted copy off the critical path) would remove.
func TestServingRefreshCopiesOncePerBatch(t *testing.T) {
	inPlace := servingRefreshBytes(t, false)
	serving := servingRefreshBytes(t, true)
	ratio := float64(serving) / float64(inPlace)
	t.Logf("bytes per cycle: %d in place, %d serving (%.2fx)", inPlace, serving, ratio)
	if ratio > 1.75 {
		t.Errorf("a serving refresh cycle allocated %.2fx the in-place cycle; want <= 1.75x", ratio)
	}
}
