package storage_test

// The tombstoned relation against a compacted oracle: random interleavings of
// the merge entry points, in place and copy-on-write, with duplicate tuples,
// forced hash collisions and threshold compactions, checked after every step
// against a plain row slice that every delete compacts. A version's readers
// — its live rows, its hash column, its key-hash columns and its shard
// slices — must all agree with the oracle, and a version once published must
// read the same ever after.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/shard"
	"repro/internal/storage"
)

var propSchema = algebra.Schema{{Rel: "t", Name: "a"}, {Rel: "t", Name: "b"}}

// hashModes are the whole-tuple hashes a run forges: the real one, one that
// collides every tuple of the same a into one 64-bit hash, and one that keeps
// hashes distinct but collides them in the low 32 bits the tuple index keys
// its slots on.
var hashModes = []struct {
	name string
	hash func(algebra.Tuple) uint64
}{
	{"real", nil},
	{"collide", func(t algebra.Tuple) uint64 { return uint64(t[0].I % 3) }},
	{"collide-low", func(t algebra.Tuple) uint64 { return uint64(t[0].I%2) | t.Hash()<<32 }},
}

// propRows draws n rows over a small domain (many duplicates), with the float
// payloads that equality and bit identity disagree on.
func propRows(rng *rand.Rand, n int) []algebra.Tuple {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5}
	out := make([]algebra.Tuple, n)
	for i := range out {
		out[i] = algebra.Tuple{algebra.NewInt(int64(rng.Intn(7))), algebra.NewFloat(floats[rng.Intn(len(floats))])}
	}
	return out
}

// propDelta wraps rows as a delta relation, carrying the forged hash column
// when the run forges one.
func propDelta(rows []algebra.Tuple, hash func(algebra.Tuple) uint64) *storage.Relation {
	r := storage.NewRelation(propSchema)
	r.AppendAll(rows)
	forge(r, hash)
	return r
}

func forge(r *storage.Relation, hash func(algebra.Tuple) uint64) {
	if hash == nil {
		return
	}
	hs := make([]uint64, r.Len())
	for i, t := range r.Rows() {
		hs[i] = hash(t)
	}
	storage.ForgeHashes(r, hs)
}

// minusModel is the compacted oracle of a delete: for each row of sub, the
// first remaining equal row of model goes.
func minusModel(model, sub []algebra.Tuple) []algebra.Tuple {
	gone := make([]bool, len(model))
	for _, s := range sub {
		for i, m := range model {
			if !gone[i] && m.Equal(s) {
				gone[i] = true
				break
			}
		}
	}
	var out []algebra.Tuple
	for i, m := range model {
		if !gone[i] {
			out = append(out, m)
		}
	}
	return out
}

// propSub draws a removal set: rows of the model (some more often than the
// model holds them) and fresh rows, absent or not.
func propSub(rng *rand.Rand, model []algebra.Tuple) []algebra.Tuple {
	var sub []algebra.Tuple
	for _, m := range model {
		switch rng.Intn(5) {
		case 0:
			sub = append(sub, m)
		case 1:
			sub = append(sub, m, m)
		}
	}
	sub = append(sub, propRows(rng, rng.Intn(4))...)
	rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	return sub
}

func bitsEqual(a, b algebra.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || a[i].S != b[i].S ||
			math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

func sameRows(t *testing.T, what string, got, want []algebra.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// checkVersion holds every reader of r to the oracle.
func checkVersion(t *testing.T, what string, r *storage.Relation, model []algebra.Tuple, hash func(algebra.Tuple) uint64) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("%s: Len %d, want %d", what, r.Len(), len(model))
	}
	sameRows(t, what+": Rows", r.Rows(), model)

	// The live ordinals select exactly the live rows, and the dead share
	// stays under the compaction threshold.
	phys, live := r.Ordinals()
	if live == nil {
		live = make([]int32, len(phys))
		for i := range live {
			live[i] = int32(i)
		}
	}
	gathered := make([]algebra.Tuple, len(live))
	for k, i := range live {
		if !r.Live(int(i)) || (k > 0 && i <= live[k-1]) {
			t.Fatalf("%s: live ordinals %v not ascending live rows", what, live)
		}
		gathered[k] = phys[i]
	}
	sameRows(t, what+": rows through the live ordinals", gathered, model)
	if dead := len(phys) - len(live); dead*storage.CompactShare > len(phys) {
		t.Fatalf("%s: %d of %d rows dead, past the compaction threshold", what, dead, len(phys))
	}

	// The hash column holds every ordinal's hash, the version's own.
	hs := r.Hashes()
	if len(hs) != len(phys) {
		t.Fatalf("%s: hash column of %d, want %d", what, len(hs), len(phys))
	}
	for i, row := range phys {
		h := row.Hash()
		if hash != nil {
			h = hash(row)
		}
		if hs[i] != h {
			t.Fatalf("%s: ordinal %d mis-hashed", what, i)
		}
	}

	// Key-hash columns are by ordinal, dead rows included.
	h := r.ColView().KeyHashes([]int{1}, storage.Par{})
	if len(h) != len(phys) {
		t.Fatalf("%s: key hash column of %d, want %d", what, len(h), len(phys))
	}
	for i, row := range phys {
		if h[i] != row.HashCols([]int{1}) {
			t.Fatalf("%s: key hash %d wrong", what, i)
		}
	}

	// Shard slices hold the live rows once, in ordinal order, with their
	// shipped key hashes; merged by ordinal they are the version's rows.
	asg := shard.Assignment{Partitions: 3, Shards: 2}.Norm()
	var merged []struct {
		ord int32
		row algebra.Tuple
	}
	for _, rg := range asg.Ranges() {
		sl := shard.SliceOf(r, asg, rg[0], rg[1])
		for k, ord := range sl.Idx {
			if !r.Live(int(ord)) || !bitsEqual(sl.Rows[k], phys[ord]) || (k > 0 && ord <= sl.Idx[k-1]) {
				t.Fatalf("%s: shard slice row %d (ordinal %d) wrong", what, k, ord)
			}
			merged = append(merged, struct {
				ord int32
				row algebra.Tuple
			}{ord, sl.Rows[k]})
		}
		for c, cols := range sl.HashCols {
			for k, row := range sl.Rows {
				if sl.Hashes[c][k] != row.HashCols(cols) {
					t.Fatalf("%s: shipped key hash %d of slice row %d wrong", what, c, k)
				}
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ord < merged[j].ord })
	rows := make([]algebra.Tuple, len(merged))
	for i, m := range merged {
		rows[i] = m.row
	}
	sameRows(t, what+": merged shard slices", rows, model)
}

func TestTombstonedRelationMatchesCompactedOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		mode := hashModes[seed%int64(len(hashModes))]
		t.Run(fmt.Sprintf("seed%d-%s", seed, mode.name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := storage.NewSnapshotStore()
			empty := storage.NewDatabase()
			model := propRows(rng, 20+rng.Intn(40))
			cur := storage.NewRelation(propSchema)
			cur.AppendAll(model)
			forge(cur, mode.hash)
			cur.ColView().KeyHashes([]int{1}, storage.Par{})
			type held struct {
				r    *storage.Relation
				rows []algebra.Tuple
			}
			var published []held
			for step := 0; step < 80; step++ {
				var what string
				switch op := rng.Intn(6); op {
				case 0, 1:
					add := propRows(rng, rng.Intn(12))
					if op == 0 {
						what, cur = "InsertAllExtend", cur.InsertAllExtend(propDelta(add, mode.hash))
					} else {
						what, cur = "UnionCOW", storage.UnionCOW(cur, propDelta(add, mode.hash))
					}
					model = append(append([]algebra.Tuple(nil), model...), add...)
				case 2, 3:
					sub := propSub(rng, model)
					if op == 2 {
						what, cur = "SubtractAllCompact", cur.SubtractAllCompact(propDelta(sub, mode.hash))
					} else {
						what, cur = "MinusCOW", storage.MinusCOW(cur, propDelta(sub, mode.hash))
					}
					model = minusModel(model, sub)
				case 4:
					what = "PublishState"
					store.PublishState(empty, map[int]*storage.Relation{0: cur})
					published = append(published, held{cur, append([]algebra.Tuple(nil), model...)})
				case 5:
					// A second child of a held version: it finds the tail
					// claimed by the first and must not write into it.
					if len(published) == 0 {
						continue
					}
					h := published[rng.Intn(len(published))]
					add, sub := propDelta(propRows(rng, 3), mode.hash), propDelta(propSub(rng, h.rows), mode.hash)
					if rng.Intn(2) == 0 {
						storage.UnionCOW(h.r, add).SubtractAllCompact(sub)
					} else {
						storage.MinusCOW(h.r, sub).InsertAllExtend(add)
					}
					what = "sibling merges"
				}
				checkVersion(t, fmt.Sprintf("step %d (%s)", step, what), cur, model, mode.hash)
				for k, h := range published {
					// Through the dead-row bitmap as well as the cached gather.
					phys, _ := h.r.Ordinals()
					var live []algebra.Tuple
					for i, row := range phys {
						if h.r.Live(i) {
							live = append(live, row)
						}
					}
					what := fmt.Sprintf("step %d (%s): published version %d", step, what, k)
					sameRows(t, what, h.r.Rows(), h.rows)
					sameRows(t, what+" by its bitmap", live, h.rows)
				}
			}
		})
	}
}
