package storage

import (
	"sync"
	"testing"
)

func relOf(rows ...int64) *Relation {
	r := NewRelation(sch())
	for _, v := range rows {
		r.Insert(tup(v, "x"))
	}
	return r
}

func TestUnionCOWMatchesInsertAll(t *testing.T) {
	r := relOf(1, 2, 2)
	add := relOf(2, 3)
	want := r.Clone()
	want.InsertAll(add)

	got := UnionCOW(r, add)
	if !EqualMultiset(got, want) {
		t.Fatalf("UnionCOW diverges from InsertAll")
	}
	for i, wt := range want.Rows() {
		if !got.Rows()[i].Equal(wt) {
			t.Fatalf("row %d order diverges", i)
		}
	}
	if r.Len() != 3 || add.Len() != 2 {
		t.Errorf("inputs were mutated: r=%d add=%d", r.Len(), add.Len())
	}
}

func TestMinusCOWMatchesSubtractAll(t *testing.T) {
	r := relOf(1, 2, 2, 3)
	sub := relOf(2, 4) // 4 absent: ignored, multiset monus
	want := r.Clone()
	want.SubtractAll(sub)

	got := MinusCOW(r, sub)
	if !EqualMultiset(got, want) {
		t.Fatalf("MinusCOW diverges from SubtractAll")
	}
	for i, wt := range want.Rows() {
		if !got.Rows()[i].Equal(wt) {
			t.Fatalf("row %d order diverges", i)
		}
	}
	if r.Len() != 4 || sub.Len() != 2 {
		t.Errorf("inputs were mutated: r=%d sub=%d", r.Len(), sub.Len())
	}
}

func TestApplyCOWLeavesOldVersionIntact(t *testing.T) {
	db := NewDatabase()
	db.Create("t", sch())
	db.relations["t"].Insert(tup(1, "x"))
	old := db.relations["t"]

	db.LogInsert("t", tup(2, "y"))
	st := NewSnapshotStore()
	st.PublishState(db, nil)
	nr := db.ApplyInserts("t")
	if old.Len() != 1 {
		t.Errorf("published version mutated by ApplyInserts: len %d", old.Len())
	}
	if nr.Len() != 2 || db.Relation("t") != nr {
		t.Errorf("new version not installed")
	}
	if db.Delta("t").Plus.Len() != 0 {
		t.Errorf("delta not cleared")
	}

	db.LogDelete("t", tup(1, "x"))
	st.PublishState(db, nil)
	nr2, _ := db.ApplyDeletes("t")
	if nr.Len() != 2 {
		t.Errorf("published version mutated by ApplyDeletes")
	}
	if nr2.Len() != 1 || db.Delta("t").Minus.Len() != 0 {
		t.Errorf("delete application wrong: len=%d", nr2.Len())
	}
}

func TestSnapshotStoreEpochsAndHistory(t *testing.T) {
	db := NewDatabase()
	db.Create("t", sch())
	st := NewSnapshotStore()
	if st.Current() != nil {
		t.Fatalf("empty store must have nil Current")
	}
	st.RetainHistory(true)

	mats := map[int]*Relation{7: relOf(1)}
	s0 := st.PublishState(db, mats)
	if s0.Epoch() != 0 {
		t.Fatalf("first epoch = %d, want 0", s0.Epoch())
	}
	mats[7] = relOf(1, 2)
	s1 := st.PublishState(db, mats)
	if s1.Epoch() != 1 || st.Current() != s1 {
		t.Fatalf("second publish: epoch %d", s1.Epoch())
	}
	// The earlier snapshot still sees the old materialization.
	if s0.Mat(7).Len() != 1 || s1.Mat(7).Len() != 2 {
		t.Errorf("snapshots share mutable mats: %d, %d", s0.Mat(7).Len(), s1.Mat(7).Len())
	}
	if h := st.History(); len(h) != 2 || h[0] != s0 || st.At(1) != s1 {
		t.Errorf("history/At wrong")
	}
	if s1.Database().MustRelation("t") != db.Relation("t") {
		t.Errorf("snapshot database must share the published relation version")
	}
}

// TestSnapshotReadersNeverTorn drives one COW writer against concurrent
// readers under -race. The writer keeps the invariant that base relation
// "t" and materialization 1 always have equal length within one published
// snapshot; a reader observing unequal lengths saw a torn state.
func TestSnapshotReadersNeverTorn(t *testing.T) {
	db := NewDatabase()
	db.Create("t", sch())
	mats := map[int]*Relation{1: relOf()}
	st := NewSnapshotStore()
	st.PublishState(db, mats)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := st.Current()
				a := s.Relation("t").Len()
				b := s.Mat(1).Len()
				if a != b {
					t.Errorf("torn read: base %d vs mat %d at epoch %d", a, b, s.Epoch())
					return
				}
			}
		}()
	}

	for step := int64(0); step < 200; step++ {
		db.LogInsert("t", tup(step, "x"))
		db.ApplyInserts("t")
		mats[1] = UnionCOW(mats[1], relOf(step))
		st.PublishState(db, mats)
	}
	close(done)
	wg.Wait()
}

// TestMergesWriteInPlaceUntilPublished pins the ownership rule of the
// writer's merge entry points: a version no snapshot holds is merged in place
// and returned, a published one is left as it was and a new version is
// returned, which the writer then owns until the next publish.
func TestMergesWriteInPlaceUntilPublished(t *testing.T) {
	db := NewDatabase()
	db.Create("t", sch())
	r := relOf(1, 2, 3)
	if got := r.InsertAllExtend(relOf(4)); got != r || r.Len() != 4 {
		t.Fatalf("unpublished version not extended in place")
	}
	if got := r.SubtractAllCompact(relOf(4)); got != r || r.Len() != 3 {
		t.Fatalf("unpublished version not compacted in place")
	}

	NewSnapshotStore().PublishState(db, map[int]*Relation{1: r})
	v := r.InsertAllExtend(relOf(5))
	if v == r || r.Len() != 3 || v.Len() != 4 {
		t.Fatalf("published version extended in place: old %d rows, new %d", r.Len(), v.Len())
	}
	if got := r.SubtractAllCompact(relOf(1)); got == r || r.Len() != 3 || got.Len() != 2 {
		t.Fatalf("published version compacted in place: old %d rows", r.Len())
	}
	if got := v.SubtractAllCompact(relOf(1)); got != v || v.Len() != 3 {
		t.Fatalf("the writer's new version was not merged in place")
	}
	if got := r.InsertAllExtend(NewRelation(sch())); got != r {
		t.Fatalf("an empty merge must keep the published version")
	}
}
