package shard

// Randomized coordinator properties over synthetic plans: lowering triggers
// the broadcast path iff the build side fits the threshold, scatter plans
// touch each leaf row exactly once (the Ord streams partition the leaf
// index space), and a real worker fleet — staged through the wire codec —
// gathers byte-identical answers to local execution at every shard count.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/volcano"
	"repro/internal/wal"
)

// buildJoinFixture creates a two-table database and a filter→join plan over
// it: probe side "fact" (random size), build side "dim", equi-key on k, a
// filter on the fact side, and a residual inequality across the join.
func buildJoinFixture(rng *rand.Rand, factN, dimN int) (*storage.Database, *volcano.PlanNode) {
	factSchema := algebra.Schema{
		{Rel: "fact", Name: "k", Type: catalog.Int, Width: 8},
		{Rel: "fact", Name: "v", Type: catalog.Int, Width: 8},
	}
	dimSchema := algebra.Schema{
		{Rel: "dim", Name: "k", Type: catalog.Int, Width: 8},
		{Rel: "dim", Name: "w", Type: catalog.Int, Width: 8},
	}
	db := storage.NewDatabase()
	fact := db.Create("fact", factSchema)
	for i := 0; i < factN; i++ {
		fact.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(20)), algebra.NewInt(rng.Int63n(100))})
	}
	dim := db.Create("dim", dimSchema)
	for i := 0; i < dimN; i++ {
		dim.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(20)), algebra.NewInt(rng.Int63n(100))})
	}

	factE := &dag.Equiv{ID: 1, Key: "t:fact", Schema: factSchema, IsTable: true, Tables: []string{"fact"}}
	dimE := &dag.Equiv{ID: 2, Key: "t:dim", Schema: dimSchema, IsTable: true, Tables: []string{"dim"}}
	factScan := &volcano.PlanNode{
		E: factE, Access: volcano.Compute,
		Op:   &dag.Op{Kind: dag.OpScan, Table: "fact"},
		Rows: float64(factN),
	}
	dimScan := &volcano.PlanNode{
		E: dimE, Access: volcano.Compute,
		Op:   &dag.Op{Kind: dag.OpScan, Table: "dim"},
		Rows: float64(dimN),
	}
	selPred := algebra.Pred{Conjuncts: []algebra.Cmp{
		algebra.CmpConst("fact.v", algebra.LT, algebra.NewInt(80)),
	}}
	selE := &dag.Equiv{ID: 3, Key: "sel:fact", Schema: factSchema, Tables: []string{"fact"}}
	sel := &volcano.PlanNode{
		E: selE, Access: volcano.Compute,
		Op:       &dag.Op{Kind: dag.OpSelect, Pred: selPred},
		Children: []*volcano.PlanNode{factScan},
		Rows:     float64(factN) * 0.8,
	}
	joinPred := algebra.Pred{Conjuncts: []algebra.Cmp{
		algebra.Eq("fact.k", "dim.k"),
		{Op: algebra.LT, L: algebra.C("fact.v"), R: algebra.C("dim.w")},
	}}
	joinE := &dag.Equiv{
		ID: 4, Key: "join", Schema: factSchema.Concat(dimSchema),
		Tables: []string{"dim", "fact"},
	}
	join := &volcano.PlanNode{
		E: joinE, Access: volcano.Compute, Algo: volcano.AlgoHash,
		Op:       &dag.Op{Kind: dag.OpJoin, Pred: joinPred},
		Children: []*volcano.PlanNode{sel, dimScan},
		Rows:     float64(factN),
	}
	return db, join
}

// fixtureEnv lowers against db with a local executor for build sides.
func fixtureEnv(db *storage.Database, maxBroadcast int) LowerEnv {
	ex := exec.NewExecutor(db)
	return LowerEnv{
		Leaf: func(p *volcano.PlanNode) (LeafRef, algebra.Schema, bool) {
			if !p.E.IsTable {
				return LeafRef{}, nil, false
			}
			name := p.E.Tables[0]
			return LeafRef{Rel: name}, db.MustRelation(name).Schema(), true
		},
		Exec: func(p *volcano.PlanNode) *storage.Relation {
			if p.Access == volcano.Probe {
				return ex.Stored(p.E)
			}
			return ex.Run(p)
		},
		MaxBroadcast: maxBroadcast,
	}
}

func TestLowerBroadcastThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for it := 0; it < 20; it++ {
		dimN := 1 + rng.Intn(30)
		db, plan := buildJoinFixture(rng, 50+rng.Intn(100), dimN)
		buildLen := db.MustRelation("dim").Len()

		// At exactly the build size the broadcast path triggers...
		req, ok := Lower(plan, fixtureEnv(db, buildLen))
		if !ok {
			t.Fatalf("it %d: Lower rejected build of %d at threshold %d", it, buildLen, buildLen)
		}
		var joins int
		for _, st := range req.Stages {
			if st.Kind == StageJoin {
				joins++
				if len(st.Build) != buildLen {
					t.Fatalf("it %d: shipped %d build rows, dim has %d", it, len(st.Build), buildLen)
				}
			}
		}
		if joins != 1 {
			t.Fatalf("it %d: %d join stages, want 1", it, joins)
		}
		// ...and one row above it the plan is not shardable.
		if _, ok := Lower(plan, fixtureEnv(db, buildLen-1)); ok {
			t.Fatalf("it %d: Lower accepted build of %d over threshold %d", it, buildLen, buildLen-1)
		}
	}
}

// stageFleet boots S volatile workers, stages both base relations at epoch,
// and returns a coordinator over in-process (codec round-tripping) clients.
func stageFleet(t *testing.T, db *storage.Database, a Assignment, epoch int64) *Coordinator {
	t.Helper()
	clients := make([]Client, a.Shards)
	for s := 0; s < a.Shards; s++ {
		w, err := NewWorker(s, a, "")
		if err != nil {
			t.Fatal(err)
		}
		clients[s] = InProc{W: w}
	}
	co, err := NewCoordinator(a, clients)
	if err != nil {
		t.Fatal(err)
	}
	for s, rg := range a.Ranges() {
		req := &StageReq{Epoch: epoch, From: -1, Base: true, Rels: map[string]Slice{}, Mats: map[int32]Slice{}}
		for _, name := range db.Names() {
			req.Rels[name] = SliceOf(db.MustRelation(name), a, rg[0], rg[1])
		}
		if err := clients[s].Stage(req); err != nil {
			t.Fatalf("stage shard %d: %v", s, err)
		}
	}
	return co
}

func TestScatterGatherMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for it := 0; it < 15; it++ {
		db, plan := buildJoinFixture(rng, 30+rng.Intn(200), 1+rng.Intn(25))
		want := exec.NewExecutor(db).Run(plan)

		req, ok := Lower(plan, fixtureEnv(db, exec.BroadcastMax()))
		if !ok {
			t.Fatalf("it %d: plan not lowerable", it)
		}
		req.Epoch = int64(it)
		for _, shards := range []int{1, 2, 4} {
			a := Assignment{Partitions: 8, Shards: shards}.Norm()
			co := stageFleet(t, db, a, req.Epoch)
			got, err := co.Scatter(req, plan.E.Schema)
			if err != nil {
				t.Fatalf("it %d shards %d: %v", it, shards, err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("it %d shards %d: %d rows, want %d", it, shards, got.Len(), want.Len())
			}
			for r, tu := range want.Rows() {
				if !tu.Equal(got.Rows()[r]) {
					t.Fatalf("it %d shards %d: row %d differs: %v vs %v", it, shards, r, got.Rows()[r], tu)
				}
			}
		}
	}
}

// TestScatterTouchesEachLeafRowOnce: the union of the fleet's Ord streams
// for an unfiltered leaf scan is exactly the leaf's row index set.
func TestScatterTouchesEachLeafRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for it := 0; it < 10; it++ {
		db := storage.NewDatabase()
		schema := algebra.Schema{{Rel: "t", Name: "a", Type: catalog.Int, Width: 8}}
		rel := db.Create("t", schema)
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			rel.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(50))})
		}
		a := Assignment{Partitions: 1 + rng.Intn(12), Shards: 1 + rng.Intn(5)}.Norm()
		clients := make([]Client, a.Shards)
		seen := make(map[int32]int)
		for s, rg := range a.Ranges() {
			w, err := NewWorker(s, a, "")
			if err != nil {
				t.Fatal(err)
			}
			clients[s] = InProc{W: w}
			req := &StageReq{Epoch: 1, From: -1, Base: true,
				Rels: map[string]Slice{"t": SliceOf(rel, a, rg[0], rg[1])},
				Mats: map[int32]Slice{}}
			if err := clients[s].Stage(req); err != nil {
				t.Fatal(err)
			}
			p, err := clients[s].Scatter(&ScatterReq{Epoch: 1, Leaf: LeafRef{Rel: "t"}})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range p.Ord {
				seen[o]++
			}
		}
		if len(seen) != n {
			t.Fatalf("it %d: fleet touched %d of %d leaf rows", it, len(seen), n)
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("it %d: leaf row %d scanned by %d shards", it, idx, c)
			}
		}
	}
}

// TestWorkerStageRecovery: a worker recovers nothing from its stage log. One
// opened on a directory that holds an earlier worker's log starts with no
// staged epoch, its first Base stage leaves a one-frame log, deltas apply
// onto the staged epoch, and a delta from a missing base is refused.
func TestWorkerStageRecovery(t *testing.T) {
	dir := t.TempDir()
	a := Assignment{Partitions: 4, Shards: 2}.Norm()
	mk := func(epoch int64, base bool, from int64, rows ...int64) *StageReq {
		s := Slice{}
		for i, v := range rows {
			s.Rows = append(s.Rows, algebra.Tuple{algebra.NewInt(v)})
			s.Idx = append(s.Idx, int32(i))
		}
		return &StageReq{Epoch: epoch, From: from, Base: base,
			Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}
	}
	w, err := NewWorker(0, a, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(mk(1, true, -1, 10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(mk(2, false, 1, 20, 21, 22)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := NewWorker(0, a, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if h := w2.Hello(); h.Staged != -1 {
		t.Fatalf("worker over an old stage log reports staged epoch %d, want -1", h.Staged)
	}
	if err := w2.Stage(mk(5, true, -1, 50, 51)); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, stageLogName))
	if err != nil {
		t.Fatal(err)
	}
	payload, rest, _, err := wal.NextFrame(log)
	if err != nil || len(rest) != 0 {
		t.Fatalf("stage log after the first Base stage: %d trailing bytes, err %v; want one frame", len(rest), err)
	}
	if req, err := DecodeStage(payload); err != nil || req.Epoch != 5 || !req.Base {
		t.Fatalf("stage log frame decodes to %+v, err %v; want the Base stage of epoch 5", req, err)
	}
	// A delta onto the staged epoch applies (From <= staged).
	if err := w2.Stage(mk(6, false, 5, 30)); err != nil {
		t.Fatalf("delta onto the staged epoch: %v", err)
	}
	p, err := w2.Scatter(&ScatterReq{Epoch: 6, Leaf: LeafRef{Rel: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 1 || p.Rows[0][0].I != 30 {
		t.Fatalf("epoch 6 serves %v, want [30]", p.Rows)
	}
	// A delta from a base the worker never staged is refused.
	if err := w2.Stage(mk(9, false, 8)); err == nil {
		t.Fatal("accepted delta with missing base")
	}
}
