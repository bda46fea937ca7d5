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
	"repro/internal/exec"
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

// foldRows returns, per updated relation, the stored rows its base delete
// fold examined (Maintainer.Split) in one warm in-place refresh of a pct %
// batch, leaving out the folds that passed the compaction threshold: a
// compaction moves every row by design, once in several cycles, and says
// nothing about what a delete costs.
func foldRows(t *testing.T, sf, pct float64) map[string]int64 {
	s := newRefreshStack(t, sf, tpcd.UpdatedRelations()[3:])
	for i := 0; i < 3; i++ {
		s.stage(0.5)
		s.rt.Refresh()
	}
	s.stage(pct)
	deletes := map[string]int{}
	for _, rel := range s.rels {
		deletes[rel] = s.rt.Ex.DB.Delta(rel).Minus.Len()
	}
	s.rt.Refresh()
	if err := s.rt.Verify(); err != nil {
		t.Fatal(err)
	}
	u := s.rt.Mt.En.U
	out := map[string]int64{}
	for i, split := range s.rt.Mt.Split() {
		rel := u.Table(i + 1)
		if u.IsInsert(i+1) || deletes[rel] == 0 {
			continue
		}
		// The batch's deletes are stored rows, so a fold that leaves no dead
		// row behind is one that compacted.
		if _, live := s.rt.Ex.DB.MustRelation(rel).Ordinals(); live == nil {
			t.Logf("SF %g: the delete fold of %s compacted; left out", sf, rel)
			continue
		}
		out[rel] = split[exec.SplitExamined]
	}
	return out
}

// TestDeleteFoldFollowsDelta is the delete fold's form of "delta-sized": the
// stored rows a base delete fold examines must follow the batch, not the
// base, so doubling the base under the same absolute batch may not double
// them.
func TestDeleteFoldFollowsDelta(t *testing.T) {
	small := foldRows(t, 0.002, 10)
	large := foldRows(t, 0.004, 5)
	var sumSmall, sumLarge int64
	both := 0
	for rel, n := range small {
		if m, ok := large[rel]; ok {
			sumSmall += n
			sumLarge += m
			both++
		}
	}
	t.Logf("rows examined by the delete folds: %d at SF 0.002, %d at SF 0.004 (same batch; %d relations)", sumSmall, sumLarge, both)
	if both < 3 || sumSmall == 0 {
		t.Fatalf("only %d relations folded deletes without compacting at both sizes (%v, %v)", both, small, large)
	}
	if float64(sumLarge) > 1.25*float64(sumSmall) {
		t.Errorf("delete folds examined %.2fx the rows when the base doubled under the same batch; want <= 1.25x",
			float64(sumLarge)/float64(sumSmall))
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

// TestServingRefreshCopiesOnlyMarks is the tighter bound tombstoned deletes
// allow. A serving cycle's delete-merge on a version the previous epoch holds
// shares that version's arrays and copies only its dead-row bitmap, one bit
// per row; its insert-merge writes behind them. What remains over the
// in-place cycle is the bitmaps, one live-ordinal gather per new version and
// the compactions that copy a version once its marks pass the threshold.
func TestServingRefreshCopiesOnlyMarks(t *testing.T) {
	inPlace := servingRefreshBytes(t, false)
	serving := servingRefreshBytes(t, true)
	ratio := float64(serving) / float64(inPlace)
	t.Logf("bytes per cycle: %d in place, %d serving (%.2fx)", inPlace, serving, ratio)
	if ratio > 1.3 {
		t.Errorf("a serving refresh cycle allocated %.2fx the in-place cycle; want <= 1.3x", ratio)
	}
}
