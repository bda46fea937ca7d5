package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/exec/equivtest"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// loggedOp is one pending base-table change of a test batch.
type loggedOp struct {
	rel string
	del bool
	t   algebra.Tuple
}

// ordersWithLines returns the keys of db's orders inside the views' date
// window that have at least one lineitem, in lineitem order, and each key's
// lineitems.
func ordersWithLines(db *storage.Database) ([]int64, map[int64][]algebra.Tuple) {
	inWindow := make(map[int64]bool)
	for _, o := range db.MustRelation("orders").Rows() {
		if o[4].I < tpcd.Days/10 {
			inWindow[o[0].I] = true
		}
	}
	var keys []int64
	lines := make(map[int64][]algebra.Tuple)
	for _, l := range db.MustRelation("lineitem").Rows() {
		if k := l[0].I; inWindow[k] {
			if lines[k] == nil {
				keys = append(keys, k)
			}
			lines[k] = append(lines[k], l)
		}
	}
	return keys, lines
}

// rf1rf2 is one batch in the shape of TPC-D's refresh functions, drawn from
// db's current state: RF1 inserts a new order under key together with its
// lineitems (copies of an existing order's), RF2 deletes an existing order
// together with its lineitems.
func rf1rf2(db *storage.Database, rng *rand.Rand, key int64) []loggedOp {
	keys, lines := ordersWithLines(db)
	tmpl, victim := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
	for victim == tmpl {
		victim = keys[rng.Intn(len(keys))]
	}
	var ops []loggedOp
	for _, o := range db.MustRelation("orders").Rows() {
		switch o[0].I {
		case tmpl:
			n := o.Clone()
			n[0] = algebra.NewInt(key)
			ops = append(ops, loggedOp{rel: "orders", t: n})
		case victim:
			ops = append(ops, loggedOp{rel: "orders", del: true, t: o.Clone()})
		}
	}
	for _, l := range lines[tmpl] {
		n := l.Clone()
		n[0] = algebra.NewInt(key)
		ops = append(ops, loggedOp{rel: "lineitem", t: n})
	}
	for _, l := range lines[victim] {
		ops = append(ops, loggedOp{rel: "lineitem", del: true, t: l.Clone()})
	}
	return ops
}

// TestReadersSeeOnlyCommittedBatches holds every published epoch to a
// committed state: under RetainHistory, the snapshot of epoch j must carry
// exactly the state after j whole batches — every maintained result and the
// answer of every serving query equal to recomputation over a reference
// database advanced by whole batches only. Each batch inserts an order with
// its lineitems and deletes another order with its lineitems, so a snapshot
// taken between the batch's update steps would hold lineitems without their
// order (or the reverse) and match no committed state.
func TestReadersSeeOnlyCommittedBatches(t *testing.T) {
	const batches = 4
	rt := buildServingRuntime(t, 0.002, 5)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	cat := rt.Plan.System.Cat
	equivs := rt.Plan.System.Dag.Equivs
	ref := tpcd.Generate(cat, 0.002, 7) // the runtime's base data

	cd := dag.New(cat)
	var roots []*dag.Equiv
	for _, sql := range serveQueries {
		roots = append(roots, cd.InsertExpr(viewdef.MustParse(cat, sql)))
	}
	// committed[j] is the state after exactly j whole batches: every
	// maintained result by node ID, then every query answer.
	type state struct {
		mats    map[int]*storage.Relation
		answers []*storage.Relation
	}
	capture := func() state {
		s := state{mats: make(map[int]*storage.Relation)}
		for id := range rt.Ex.Mat {
			s.mats[id] = equivtest.Eval(ref, equivs[id])
		}
		for _, root := range roots {
			s.answers = append(s.answers, equivtest.Eval(ref, root))
		}
		return s
	}
	committed := []state{capture()}

	rng := rand.New(rand.NewSource(37))
	for b := int64(0); b < batches; b++ {
		for _, op := range rf1rf2(rt.Ex.DB, rng, 1<<40+b) {
			for _, db := range []*storage.Database{rt.Ex.DB, ref} {
				if op.del {
					db.LogDelete(op.rel, op.t)
				} else {
					db.LogInsert(op.rel, op.t)
				}
			}
		}
		rt.Refresh()
		for _, rel := range []string{"orders", "lineitem"} {
			ref.ApplyInserts(rel)
			ref.ApplyDeletes(rel)
		}
		committed = append(committed, capture())
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}

	hist := rt.Snapshots().History()
	for _, snap := range hist {
		j := snap.Epoch()
		if j >= int64(len(committed)) {
			t.Fatalf("epoch %d published after %d committed batches: readers could see a half-applied batch",
				j, batches)
		}
		want := committed[j]
		for id, got := range snap.Mats() {
			if !storage.EqualMultiset(got, want.mats[id]) {
				t.Errorf("epoch %d: maintained e%d has %d rows, the state after %d whole batches %d",
					j, id, got.Len(), j, want.mats[id].Len())
			}
		}
		for qi, root := range roots {
			if got := recomputeAt(cd, root, snap); !storage.EqualMultiset(got, want.answers[qi]) {
				t.Errorf("epoch %d: query %d answers %d rows, the state after %d whole batches %d",
					j, qi, got.Len(), j, want.answers[qi].Len())
			}
		}
	}
	if len(hist) != batches+1 {
		t.Errorf("%d epochs retained, want %d: the initial state and one per batch", len(hist), batches+1)
	}
}
