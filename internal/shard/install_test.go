package shard

// Coordinator lifecycle over real snapshots: base install, pointer-diffed
// delta install with mat drops, idempotence, the three rejoin legs, client
// replacement — and the same worker surface reached through the net/rpc
// transport instead of the in-process harness.

import (
	"net"
	"strings"
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

	// Rejoin leg 1: a worker already at the gate needs nothing but a commit.
	if err := co.Rejoin(0, nil); err != nil {
		t.Fatalf("rejoin at gate: %v", err)
	}

	// Rejoin leg 2: a worker holding the previous epoch gets the last delta
	// resent (its staged epoch satisfies the request's From).
	behind, err := NewWorker(1, a, "")
	if err != nil {
		t.Fatal(err)
	}
	rg := a.Ranges()[1]
	base := &StageReq{Epoch: snap0.Epoch(), From: -1, Base: true,
		Rels: map[string]Slice{"t": SliceOf(snap0.Relation("t"), a, rg[0], rg[1])},
		Mats: map[int32]Slice{1: SliceOf(mats[1], a, rg[0], rg[1])}}
	if err := behind.Stage(base); err != nil {
		t.Fatal(err)
	}
	co.ReplaceClient(1, InProc{W: behind})
	if err := co.Rejoin(1, nil); err != nil {
		t.Fatalf("rejoin with restage: %v", err)
	}
	if h := behind.Hello(); h.Staged != snap1.Epoch() {
		t.Fatalf("restaged worker at epoch %d, want %d", h.Staged, snap1.Epoch())
	}
	if got := scatterLeaf(t, co, LeafRef{Rel: "t"}, intSchema("t")); got.Len() != 7 {
		t.Fatalf("fleet serves %d rows after restage rejoin, want 7", got.Len())
	}

	// Rejoin leg 3: a blank worker needs the gate snapshot to bootstrap —
	// and rejoin refuses both no snapshot and the wrong epoch's.
	blank, err := NewWorker(1, a, "")
	if err != nil {
		t.Fatal(err)
	}
	co.ReplaceClient(1, InProc{W: blank})
	if err := co.Rejoin(1, nil); err == nil {
		t.Fatal("bootstrap rejoin accepted a nil snapshot")
	}
	if err := co.Rejoin(1, snap0); err == nil {
		t.Fatal("bootstrap rejoin accepted a stale snapshot")
	}
	if err := co.Rejoin(1, snap1); err != nil {
		t.Fatalf("bootstrap rejoin: %v", err)
	}
	if got := scatterLeaf(t, co, LeafRef{Rel: "t"}, intSchema("t")); got.Len() != 7 {
		t.Fatalf("fleet serves %d rows after bootstrap rejoin, want 7", got.Len())
	}

	// A worker built for a different assignment is refused outright.
	alien, err := NewWorker(1, Assignment{Partitions: 8, Shards: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	co.ReplaceClient(1, InProc{W: alien})
	if err := co.Rejoin(1, snap1); err == nil {
		t.Fatal("rejoin accepted a mismatched assignment")
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

// TestRPCTransport drives the full Client surface through a live net/rpc
// server in-process: same wire messages, real connection in between.
func TestRPCTransport(t *testing.T) {
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(l, w)
	defer l.Close()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if h.Shard != 0 || h.Shards != 1 || h.Partitions != 4 || h.Staged != -1 {
		t.Fatalf("hello over rpc: %+v", h)
	}
	rel := intRelation("t", 1, 2, 3, 4, 5)
	if err := cl.Stage(&StageReq{Epoch: 0, From: -1, Base: true,
		Rels: map[string]Slice{"t": SliceOf(rel, a, 0, a.Partitions)},
		Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	p, err := cl.Scatter(&ScatterReq{Epoch: 0, Leaf: LeafRef{Rel: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 5 {
		t.Fatalf("scatter over rpc returned %d rows, want 5", len(p.Rows))
	}
	// Errors must travel back as errors, not broken connections.
	if _, err := cl.Scatter(&ScatterReq{Epoch: 42, Leaf: LeafRef{Rel: "t"}}); err == nil {
		t.Fatal("unstaged epoch scattered over rpc")
	}
	if err := cl.Stage(&StageReq{Epoch: 5, From: 4, Rels: map[string]Slice{}, Mats: map[int32]Slice{}}); err == nil {
		t.Fatal("delta with missing base accepted over rpc")
	}
	if err := cl.Commit(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// A fleet whose workers disagree on the partition count is refused when it
// is first connected, with the message Rejoin gives, not only after a
// worker restarts.
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
