package main

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// stageTimes is where one set-up spent its time. Setup is the whole of it,
// from the data being handed over until the first timed op could start; the
// stages are parts of it, except Generate, which is load generation and
// precedes it.
type stageTimes struct {
	Setup                                           time.Duration
	Generate, DagBuild, Greedy, Materialize, Enable time.Duration
	BenefitCalls                                    int
}

// base is what every workload starts from: generated TPC-D data, the
// ten-view system, and the greedy maintenance plan for the update spec.
type base struct {
	cat  *catalog.Catalog
	db   *storage.Database
	sys  *core.System
	plan *core.MaintenancePlan
	st   stageTimes
}

// genData generates the database (timed as tpcd.generate_s, outside setup_s).
func genData(sf float64, seed int64) (*catalog.Catalog, *storage.Database, time.Duration) {
	t0 := time.Now()
	cat := tpcd.NewCatalog(sf, true)
	db := tpcd.Generate(cat, sf, seed)
	return cat, db, time.Since(t0)
}

// newBase optimises the ten-view workload over already generated data:
// tpcd.ViewSet10, plans from OptimizeGreedy under the paper's update model.
// No engine, partition or worker setting is touched: the benchmark measures
// the defaults.
func newBase(cat *catalog.Catalog, db *storage.Database, pct float64, tr *tracer) (*base, error) {
	b := &base{cat: cat, db: db}
	id := tr.begin("dag.build", 0, 0)
	t0 := time.Now()
	b.sys = core.NewSystem(cat, core.Options{})
	for _, v := range tpcd.ViewSet10(cat) {
		if _, err := b.sys.AddView(v.Name, v.Def); err != nil {
			return nil, fmt.Errorf("add view %s: %w", v.Name, err)
		}
	}
	b.st.DagBuild = time.Since(t0)
	tr.end(id)

	id = tr.begin("greedy.select", 0, 0)
	t0 = time.Now()
	b.plan = b.sys.OptimizeGreedy(diff.UniformPercent(cat, tpcd.UpdatedRelations(), pct), greedy.DefaultConfig())
	b.st.Greedy = time.Since(t0)
	tr.end(id)
	b.st.BenefitCalls = b.plan.Greedy.BenefitCalls
	return b, nil
}

// materialize is MaintenancePlan.NewRuntime, timed.
func (b *base) materialize(tr *tracer) *core.Runtime {
	id := tr.begin("exec.materialize", 0, 0)
	t0 := time.Now()
	rt := b.plan.NewRuntime(b.db)
	b.st.Materialize = time.Since(t0)
	tr.end(id)
	return rt
}
