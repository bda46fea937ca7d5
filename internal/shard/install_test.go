package shard

// Coordinator lifecycle over real snapshots: base install, pointer-diffed
// delta install with mat drops, idempotence, a failed stage retried with a
// superset delta, and the assignment check at connect.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

func intSchema(rel string) algebra.Schema {
	return algebra.Schema{{Rel: rel, Name: "a", Type: catalog.Int, Width: 8}}
}

func intRelation(rel string, vals ...int64) *storage.Relation {
	r := storage.NewRelation(intSchema(rel))
	for _, v := range vals {
		r.Insert(algebra.Tuple{algebra.NewInt(v)})
	}
	return r
}

// scatterLeaf gathers a bare leaf scan through the coordinator.
func scatterLeaf(t *testing.T, co *Coordinator, ref LeafRef, schema algebra.Schema) *storage.Relation {
	t.Helper()
	got, err := co.Scatter(&ScatterReq{Epoch: co.Gate(), Leaf: ref}, schema)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCoordinatorInstallLifecycle(t *testing.T) {
	st := storage.NewSnapshotStore()
	st.RetainHistory(true)
	db := storage.NewDatabase()
	rel := db.Create("t", intSchema("t"))
	for i := int64(0); i < 6; i++ {
		rel.Insert(algebra.Tuple{algebra.NewInt(i)})
	}
	mats := map[int]*storage.Relation{1: intRelation("m", 7, 8)}

	a := Assignment{Partitions: 4, Shards: 2}.Norm()
	clients := make([]Client, a.Shards)
	for i := range clients {
		w, err := NewWorker(i, a, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = InProc{W: w}
	}
	co, err := NewCoordinator(a, clients)
	if err != nil {
		t.Fatal(err)
	}
	if co.Gate() != -1 {
		t.Fatalf("gate %d before any install", co.Gate())
	}
	if got := co.Assignment(); got != a {
		t.Fatalf("assignment %+v, want %+v", got, a)
	}

	// Base install, then an idempotent repeat of the same epoch.
	snap0 := st.PublishState(db, mats)
	if err := co.Install(snap0); err != nil {
		t.Fatal(err)
	}
	if co.Gate() != snap0.Epoch() {
		t.Fatalf("gate %d after base install, want %d", co.Gate(), snap0.Epoch())
	}
	if err := co.Install(snap0); err != nil {
		t.Fatalf("re-install of current epoch: %v", err)
	}
	if got := scatterLeaf(t, co, LeafRef{Rel: "t"}, intSchema("t")); got.Len() != 6 {
		t.Fatalf("fleet serves %d base rows, want 6", got.Len())
	}
	if got := scatterLeaf(t, co, LeafRef{Mat: true, ID: 1}, intSchema("m")); got.Len() != 2 {
		t.Fatalf("fleet serves %d mat rows, want 2", got.Len())
	}

	// Delta install: one relation changes pointer, mat 1 is dropped and mat
	// 2 appears. The fleet must serve the new epoch's versions.
	db.LogInsert("t", algebra.Tuple{algebra.NewInt(99)})
	db.ApplyInserts("t")
	mats2 := map[int]*storage.Relation{2: intRelation("m2", 1, 2, 3)}
	snap1 := st.PublishState(db, mats2)
	if err := co.Install(snap1); err != nil {
		t.Fatal(err)
	}
	if co.Gate() != snap1.Epoch() {
		t.Fatalf("gate %d after delta install, want %d", co.Gate(), snap1.Epoch())
	}
	if got := scatterLeaf(t, co, LeafRef{Rel: "t"}, intSchema("t")); got.Len() != 7 {
		t.Fatalf("fleet serves %d rows after delta, want 7", got.Len())
	}
	if got := scatterLeaf(t, co, LeafRef{Mat: true, ID: 2}, intSchema("m2")); got.Len() != 3 {
		t.Fatalf("fleet serves %d new-mat rows, want 3", got.Len())
	}
	if _, err := co.Scatter(&ScatterReq{Epoch: co.Gate(), Leaf: LeafRef{Mat: true, ID: 1}}, intSchema("m")); err == nil {
		t.Fatal("dropped mat still scatterable")
	}

	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorClientCountMismatch(t *testing.T) {
	a := Assignment{Partitions: 4, Shards: 2}.Norm()
	if _, err := NewCoordinator(a, nil); err == nil {
		t.Fatal("coordinator accepted 0 clients for 2 shards")
	}
}

// A fleet whose workers disagree on the partition count is refused when it
// is first connected.
func TestCoordinatorRejectsMismatchedFleet(t *testing.T) {
	a := Assignment{Partitions: 4, Shards: 2}.Norm()
	w0, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(1, Assignment{Partitions: 8, Shards: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(a, []Client{InProc{W: w0}, InProc{W: w1}})
	if err == nil {
		t.Fatal("coordinator accepted workers whose partition counts disagree")
	}
	if !strings.Contains(err.Error(), "assignment mismatch: worker 1/2@8 vs coordinator 1/2@4") {
		t.Fatalf("error %q does not name the mismatch", err)
	}
	// Swapped slots are refused too.
	w1ok, err := NewWorker(1, a, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(a, []Client{InProc{W: w1ok}, InProc{W: w0}}); err == nil {
		t.Fatal("coordinator accepted workers in swapped slots")
	}
}

// failingClient is an InProc client that records every StageReq it is sent
// and, once armed, fails the next Stage before it reaches the worker.
type failingClient struct {
	InProc
	mu    sync.Mutex
	armed bool
	reqs  []*StageReq
}

func (c *failingClient) Stage(req *StageReq) error {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	fail := c.armed
	c.armed = false
	c.mu.Unlock()
	if fail {
		return errors.New("injected stage failure")
	}
	return c.InProc.Stage(req)
}

// TestInstallRetryAfterFailedStage: a stage that fails on one shard leaves
// the gate where it was, and the next Install diffs against the last epoch
// every shard acknowledged, so the shard that missed a delta receives a
// superset of it and the gate reaches the new epoch. The fleet then serves
// exactly the snapshot's rows.
func TestInstallRetryAfterFailedStage(t *testing.T) {
	st := storage.NewSnapshotStore()
	st.RetainHistory(true)
	db := storage.NewDatabase()
	for _, name := range []string{"t", "u"} {
		rel := db.Create(name, intSchema(name))
		for i := int64(0); i < 6; i++ {
			rel.Insert(algebra.Tuple{algebra.NewInt(i)})
		}
	}
	mats := map[int]*storage.Relation{1: intRelation("m", 7, 8)}

	a := Assignment{Partitions: 4, Shards: 2}.Norm()
	clients := make([]Client, a.Shards)
	for i := range clients {
		w, err := NewWorker(i, a, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = InProc{W: w}
	}
	flaky := &failingClient{InProc: clients[1].(InProc)}
	clients[1] = flaky
	co, err := NewCoordinator(a, clients)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	snap0 := st.PublishState(db, mats)
	if err := co.Install(snap0); err != nil {
		t.Fatal(err)
	}

	// Epoch 1 changes t; shard 1 fails to stage it.
	insert := func(rel string, v int64) {
		db.LogInsert(rel, algebra.Tuple{algebra.NewInt(v)})
		db.ApplyInserts(rel)
	}
	insert("t", 99)
	snap1 := st.PublishState(db, mats)
	flaky.armed = true
	if err := co.Install(snap1); err == nil {
		t.Fatal("install succeeded with a failing shard")
	}
	if got := co.Gate(); got != snap0.Epoch() {
		t.Fatalf("failed install moved the gate: %d -> %d", snap0.Epoch(), got)
	}

	// Epoch 2 changes u only. The retried delta still runs from epoch 0
	// and carries t as well.
	insert("u", 42)
	snap2 := st.PublishState(db, mats)
	if err := co.Install(snap2); err != nil {
		t.Fatalf("retried install: %v", err)
	}
	if got := co.Gate(); got != snap2.Epoch() {
		t.Fatalf("gate %d after retry, want %d", got, snap2.Epoch())
	}
	retry := flaky.reqs[len(flaky.reqs)-1]
	if retry.Epoch != snap2.Epoch() || retry.From != snap0.Epoch() || retry.Base {
		t.Fatalf("retried stage epoch %d from %d (base %v), want a delta %d from %d",
			retry.Epoch, retry.From, retry.Base, snap2.Epoch(), snap0.Epoch())
	}
	for _, name := range []string{"t", "u"} {
		if _, ok := retry.Rels[name]; !ok {
			t.Fatalf("retried delta lacks %q: not a superset of the missed epoch", name)
		}
	}

	// Scattered rows equal the snapshot's, in its row order.
	for _, name := range []string{"t", "u"} {
		got := scatterLeaf(t, co, LeafRef{Rel: name}, intSchema(name))
		want := snap2.Relation(name).Rows()
		if got.Len() != len(want) {
			t.Fatalf("%s: fleet serves %d rows, snapshot holds %d", name, got.Len(), len(want))
		}
		for r, tu := range want {
			if !tu.Equal(got.Rows()[r]) {
				t.Fatalf("%s: row %d differs from the snapshot", name, r)
			}
		}
	}
	if got := scatterLeaf(t, co, LeafRef{Mat: true, ID: 1}, intSchema("m")); got.Len() != 2 {
		t.Fatalf("fleet serves %d mat rows, want 2", got.Len())
	}
}
