package equivtest

// BenchmarkPipelineAllocs prices what the columnar pipeline exists to remove:
// per-operator row materialization. A three-operator chain (select → join →
// aggregate) runs with allocations reported; the companion test holds them
// under a fixed ceiling, so an operator that starts gathering a full []Tuple
// relation at its boundary (instead of only at the sink) fails it.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
)

// pipelineBenchRoot builds a fixed select → join → aggregate chain over two
// deterministic tables, returning the database and DAG root to evaluate.
func pipelineBenchRoot() (*storage.Database, *dag.Equiv) {
	rng := rand.New(rand.NewSource(77))
	cat, db := catalog.New(), storage.NewDatabase()
	t1 := RandTable(rng, cat, db, "r1", 4, 4000, false)
	t2 := RandTable(rng, cat, db, "r2", 3, 2000, false)
	join := algebra.NewJoin(
		algebra.Pred{Conjuncts: []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))}},
		algebra.NewSelect(
			algebra.Pred{Conjuncts: []algebra.Cmp{
				algebra.CmpConst(t1.QCol(1), algebra.NE, RandValue(rng, t1.Cols[1].Type, false))}},
			algebra.NewScan(cat, "r1")),
		algebra.NewScan(cat, "r2"))
	node := algebra.NewAggregate(
		[]algebra.ColRef{algebra.C(t1.QCol(2))},
		[]algebra.AggSpec{
			{Func: algebra.Count},
			{Func: algebra.Sum, Col: algebra.C(t2.QCol(1))},
		}, join)
	d := dag.New(cat)
	return db, d.AddQuery("q", node)
}

// runPipeline evaluates the chain once, sequentially (isolating the pipeline's
// cost from partition parallelism).
func runPipeline(db *storage.Database, root *dag.Equiv) *storage.Relation {
	return exec.NewExecutor(db).EvalNode(root)
}

// BenchmarkPipelineAllocs: the three-operator chain; read bytes/op and
// allocs/op.
func BenchmarkPipelineAllocs(b *testing.B) {
	db, root := pipelineBenchRoot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := runPipeline(db, root); out.Len() == 0 {
			b.Fatal("pipeline produced no rows; benchmark is vacuous")
		}
	}
}

// The chain's allocation ceiling: what the chained engine measured on this
// chain at the last commit that still had a batch engine to compare with
// (6aa3897: 97 277 712 B/op, 224 allocs/op; the batch engine, which gathered
// rows at every operator boundary, read 327 621 705 B/op and 815 allocs/op
// there) plus 10 %.
const (
	pipelineBytesCeiling  = 97277712 * 1.1
	pipelineAllocsCeiling = 224 * 1.1
)

// TestPipelineAllocCeiling pins "a chain gathers once": the three-operator
// chain must stay under the absolute allocation ceiling, in bytes/op and in
// allocs/op.
func TestPipelineAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement loop")
	}
	db, root := pipelineBenchRoot()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runPipeline(db, root)
		}
	})
	bytes, allocs := float64(r.AllocedBytesPerOp()), float64(r.AllocsPerOp())
	t.Logf("%.0f B/op %.0f allocs/op (ceilings %.0f, %.0f)", bytes, allocs, pipelineBytesCeiling, pipelineAllocsCeiling)
	if bytes > pipelineBytesCeiling {
		t.Errorf("bytes/op %.0f, want <= %.0f", bytes, pipelineBytesCeiling)
	}
	if allocs > pipelineAllocsCeiling {
		t.Errorf("allocs/op %.0f, want <= %.0f", allocs, pipelineAllocsCeiling)
	}
}
