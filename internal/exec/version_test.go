package exec_test

// Version immutability across the in-place → copy-on-write boundary. A
// runtime that refreshed in place has relations with spare capacity behind
// every array; when serving is enabled those very relations are published,
// and the first copy-on-write merge off each of them shares its arrays and
// writes the delta into that capacity. Everything a reader can reach from
// the published snapshot — rows, hash columns, built columns, key-hash
// columns — must stay bit-identical while the writer keeps refreshing; the
// concurrent reader makes the race detector check the same thing byte by
// byte.

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// versionDigest folds everything reachable from one relation version into a
// digest, building its hash column and columns on the way (a lazily built
// view of a published version is as immutable as the version). keys names
// the key-hash columns to fold: those cached when the version was published,
// since the writer's own joins cache further ones on it afterwards.
func versionDigest(r *storage.Relation, keys [][]int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, t := range r.Rows() {
		for _, v := range t {
			put(uint64(v.Kind))
			put(uint64(v.I))
			put(math.Float64bits(v.F))
			h.Write([]byte(v.S))
		}
	}
	for _, x := range r.Hashes() {
		put(x)
	}
	cv := r.ColView()
	for c := range r.Schema() {
		col := cv.Col(c)
		put(uint64(col.Rep))
		for _, x := range col.I {
			put(uint64(x))
		}
		for _, x := range col.F {
			put(math.Float64bits(x))
		}
		for _, x := range col.S {
			h.Write([]byte(x))
		}
	}
	for _, cols := range keys {
		for _, x := range cv.KeyHashes(cols, storage.Par{}) {
			put(x)
		}
	}
	return h.Sum64()
}

// published is one relation version of a snapshot as it read at publication.
type published struct {
	keys   [][]int
	digest uint64
}

func (p published) holds(r *storage.Relation) bool { return versionDigest(r, p.keys) == p.digest }

// publishedVersions digests every relation version of a snapshot.
func publishedVersions(s *storage.Snapshot) map[*storage.Relation]published {
	out := map[*storage.Relation]published{}
	for _, name := range s.Database().Names() {
		out[s.Relation(name)] = published{}
	}
	for _, r := range s.Mats() {
		out[r] = published{}
	}
	for r := range out {
		keys, _ := r.ColView().CachedKeys()
		out[r] = published{keys: keys, digest: versionDigest(r, keys)}
	}
	return out
}

func TestPublishedVersionSurvivesLaterRefreshes(t *testing.T) {
	s := newRefreshStack(t, 0.002, tpcd.UpdatedRelations())
	for i := 0; i < 3; i++ { // in place: arrays grow and compact where they are
		s.stage(5)
		s.rt.Refresh()
	}
	s.rt.EnableServing(core.ServeOptions{})
	s0 := s.rt.Snapshots().Current()
	want := publishedVersions(s0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for r, p := range want {
				if !p.holds(r) {
					t.Errorf("a version published at epoch %d changed under a reader", s0.Epoch())
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < 3; i++ { // copy-on-write: the first unions claim the published tails
		s.stage(5)
		s.rt.Refresh()
	}
	close(done)
	wg.Wait()

	for r, p := range want {
		if !p.holds(r) {
			t.Fatalf("a version published at epoch %d was rewritten by later refreshes", s0.Epoch())
		}
	}
	if err := s.rt.Verify(); err != nil {
		t.Fatal(err)
	}
	if cur := s.rt.Snapshots().Current(); cur.Epoch() <= s0.Epoch() {
		t.Fatalf("the writer published nothing after epoch %d", s0.Epoch())
	}
}
