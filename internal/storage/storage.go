// Package storage provides the in-memory storage layer: multiset relations,
// delta relations (δ+ / δ−) that accumulate inserts and
// deletes between view refreshes, and the Shared write-once cell that
// publishes relations to concurrent readers (see shared.go for the
// concurrency contract). The paper assumes updates are logged into delta
// relations and handed to the refresh mechanism (§3); this package is that
// mechanism's substrate.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
)

// Relation is an in-memory multiset of tuples with a fixed schema.
// Duplicates are represented positionally (a tuple may appear several times).
//
// A relation version stores its rows by ordinal. A delete-merge does not move
// them: it marks the removed ordinals in the version's dead-row bitmap
// (merge.go), so the rows a reader sees (Rows, Len) are the live ones in
// ordinal order, and the readers that work by ordinal (the operator kernels,
// the shard slicer) skip the dead ones through Ordinals or Live. A version
// may additionally carry a cached whole-tuple hash column (Hashes,
// hashcol.go), which backs the tuple index the delete-merge probes and the
// shard slicer's residues, and a cached column view (ColView, colview.go)
// used by the columnar operator kernels; both are indexed by ordinal. The
// refresh merges carry both forward, any other in-place mutation drops them.
type Relation struct {
	schema algebra.Schema
	rows   []algebra.Tuple
	part   atomic.Pointer[hashView]
	colv   atomic.Pointer[ColView]
	// dead marks deleted ordinals (bit i of word i/64; ordinals past the
	// words are live) and ndead counts them. Every version owns its words: a
	// copy-on-write child copies them, so marking never reaches another
	// version.
	dead  []uint64
	ndead int
	// The live gathers of a version with dead rows, built on first use:
	// liveRows for Rows, liveSel (the live ordinals) for Ordinals. liveMu
	// serialises the builds, into rowsBuf and selBuf: an in-place merge only
	// drops the gathers, so the next gather of the writer's version reuses
	// the arrays and regathers without allocating.
	liveMu   sync.Mutex
	liveRows atomic.Pointer[[]algebra.Tuple]
	liveSel  atomic.Pointer[[]int32]
	rowsBuf  []algebra.Tuple
	selBuf   []int32
	// Array sharing between copy-on-write versions (merge.go). claimed: the
	// capacity behind this version's arrays is not its own to append into (a
	// child owns it, or this version lost it to a sibling). shares: this
	// version's arrays alias another version's, so it must not rewrite them
	// in place. published: a snapshot holds this version (PublishState), so
	// nothing about it may change again; the merge entry points derive a new
	// version instead.
	claimed   atomic.Bool
	shares    bool
	published atomic.Bool
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema algebra.Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() algebra.Schema { return r.schema }

// Len returns the number of live tuples (counting duplicates).
func (r *Relation) Len() int { return len(r.rows) - r.ndead }

// Rows returns the live rows in ordinal order — the survivors of every
// delete-merge in their original order, then the rows appended after them,
// exactly the rows and order a compacting delete would leave. A version with
// no dead rows hands out its row array, clipped to its length (the capacity
// behind it may belong to a later version); one with dead rows gathers them
// on first use and keeps the gather. Callers must not mutate the slice. The
// slice of a relation the writer still merges into in place is valid until
// its next merge.
func (r *Relation) Rows() []algebra.Tuple {
	if r.ndead == 0 {
		return clip(r.rows)
	}
	if p := r.liveRows.Load(); p != nil {
		return *p
	}
	r.liveMu.Lock()
	defer r.liveMu.Unlock()
	if p := r.liveRows.Load(); p != nil {
		return *p
	}
	if cap(r.rowsBuf) < len(r.rows) {
		r.rowsBuf = make([]algebra.Tuple, len(r.rows)+len(r.rows)/8)
	}
	out := clip(gatherLive(r.dead, r.rows, r.rowsBuf))
	r.liveRows.Store(&out)
	return out
}

// Ordinals returns the version's rows by ordinal, dead ones included and
// clipped to their length, and the ascending ordinals of the live ones — nil
// when every row is live. The column view and the hash column index the
// same ordinals, so readers that work by ordinal (the operator kernels, the
// shard slicer) read all three through the live ordinals. The live ordinals
// are gathered once per version and shared by every caller; they must not be
// mutated.
func (r *Relation) Ordinals() ([]algebra.Tuple, []int32) {
	if r.ndead == 0 {
		return clip(r.rows), nil
	}
	if p := r.liveSel.Load(); p != nil {
		return clip(r.rows), *p
	}
	r.liveMu.Lock()
	defer r.liveMu.Unlock()
	if p := r.liveSel.Load(); p == nil {
		if cap(r.selBuf) < len(r.rows) {
			r.selBuf = make([]int32, len(r.rows)+len(r.rows)/8)
		}
		sel := clip(liveOrdinals(r.dead, len(r.rows), r.selBuf))
		r.liveSel.Store(&sel)
	}
	return clip(r.rows), *r.liveSel.Load()
}

// Live reports whether ordinal i holds a live row.
func (r *Relation) Live(i int) bool {
	w := i >> 6
	return w >= len(r.dead) || r.dead[w]>>(uint(i)&63)&1 == 0
}

// ClearDead clears the bits of the dead rows in a bitmap over the version's
// ordinals (bit i of word i/64): a filter evaluated over every ordinal keeps
// only the live survivors, word by word.
func (r *Relation) ClearDead(words []uint64) {
	for w, d := range r.dead[:min(len(r.dead), len(words))] {
		words[w] &^= d
	}
}

// gatherLive copies src[i] for every live ordinal i (dead: the dead-row
// bitmap), in order, to the front of dst and returns that prefix. dst must
// hold len(src) elements: the loop writes every element and advances past
// the live ones only, so it takes no branch per row.
func gatherLive[T any](dead []uint64, src, dst []T) []T {
	dst = dst[:len(src)]
	k := 0
	for w, word := range dead {
		lo := w << 6
		if lo >= len(src) {
			break
		}
		hi := min(lo+64, len(src))
		if word == 0 {
			k += copy(dst[k:], src[lo:hi])
			continue
		}
		for i := lo; i < hi; i++ {
			dst[k] = src[i]
			k += int(^word >> uint(i-lo) & 1)
		}
	}
	if lo := len(dead) << 6; lo < len(src) {
		k += copy(dst[k:], src[lo:])
	}
	return dst[:k]
}

// liveOrdinals is gatherLive over the ordinals [0, n) themselves.
func liveOrdinals(dead []uint64, n int, dst []int32) []int32 {
	dst = dst[:n]
	k := 0
	for w, word := range dead {
		lo := w << 6
		if lo >= n {
			break
		}
		for i := lo; i < min(lo+64, n); i++ {
			dst[k] = int32(i)
			k += int(^word >> uint(i-lo) & 1)
		}
	}
	for i := len(dead) << 6; i < n; i++ {
		dst[k] = int32(i)
		k++
	}
	return dst[:k]
}

// dropLive discards the live gathers after an in-place merge changed which
// rows are live; the next gathers rewrite the same arrays. Only the writer
// merges a relation in place, and only while no snapshot holds it, so no
// reader can hold the arrays being rewritten past the merge.
func (r *Relation) dropLive() {
	r.liveRows.Store(nil)
	r.liveSel.Store(nil)
}

// unshare moves the rows to an array of r's own, before a view-dropping
// in-place mutation, when the current one is shared with another version.
func (r *Relation) unshare() {
	if r.shares || r.claimed.Load() {
		r.rows = append(make([]algebra.Tuple, 0, len(r.rows)+1), r.rows...)
		r.shares = false
		r.claimed.Store(false)
	}
}

// Insert appends a tuple. The tuple must match the schema arity.
func (r *Relation) Insert(t algebra.Tuple) {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("storage: tuple arity %d does not match schema arity %d",
			len(t), len(r.schema)))
	}
	r.unshare()
	r.rows = append(r.rows, t)
	r.invalidate()
}

// Append appends a tuple without the arity check. Executor hot paths use it
// when the physical plan already guarantees the arity.
func (r *Relation) Append(t algebra.Tuple) {
	r.unshare()
	r.rows = append(r.rows, t)
	r.invalidate()
}

// AppendAll appends a batch of tuples without arity checks; operators use it
// to install their gathered output.
func (r *Relation) AppendAll(ts []algebra.Tuple) {
	r.unshare()
	r.rows = append(r.rows, ts...)
	r.invalidate()
}

// Reserve grows the backing slice so n more rows fit without reallocation.
func (r *Relation) Reserve(n int) {
	if free := cap(r.rows) - len(r.rows); free < n {
		grown := make([]algebra.Tuple, len(r.rows), len(r.rows)+n)
		copy(grown, r.rows)
		r.rows = grown
	}
}

// InsertAll appends every tuple of another relation (multiset union in
// place). The schemas must have equal arity; it is checked once, not per row.
func (r *Relation) InsertAll(o *Relation) {
	if len(o.schema) != len(r.schema) {
		panic(fmt.Sprintf("storage: schema arity %d does not match %d",
			len(o.schema), len(r.schema)))
	}
	r.unshare()
	r.rows = append(r.rows, o.Rows()...)
	r.invalidate()
}

// ReplaceRows swaps the relation's contents wholesale, dropping any cached
// view and every dead mark. The recovery boot path uses it to install
// spilled rows (which must match the schema arity — checked once) into
// freshly created relations, and the executor's sink to install the rows it
// gathered; the given slice is adopted, not copied.
func (r *Relation) ReplaceRows(rows []algebra.Tuple) {
	for _, t := range rows {
		if len(t) != len(r.schema) {
			panic(fmt.Sprintf("storage: tuple arity %d does not match schema arity %d",
				len(t), len(r.schema)))
		}
	}
	r.rows = rows
	r.dead, r.ndead = nil, 0
	r.invalidate()
}

// Clone returns a deep copy of the live rows.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.schema)
	rows := r.Rows()
	out.rows = make([]algebra.Tuple, len(rows))
	for i, t := range rows {
		out.rows[i] = t.Clone()
	}
	return out
}

// tupleCount pairs one distinct tuple with its multiplicity.
type tupleCount struct {
	t algebra.Tuple
	n int
}

// TupleCounts is a hashed multiset of tuples keyed by the typed 64-bit tuple
// hash (algebra.Tuple.Hash): each hash keys a small bucket of distinct
// tuples, disambiguated by Tuple.Equal when hashes collide.
type TupleCounts struct {
	buckets map[uint64][]tupleCount
	size    int
}

// NewTupleCounts returns an empty multiset sized for about n tuples.
func NewTupleCounts(n int) *TupleCounts {
	return &TupleCounts{buckets: make(map[uint64][]tupleCount, n)}
}

// Len returns the total multiplicity.
func (tc *TupleCounts) Len() int { return tc.size }

// Add raises the multiplicity of t by n.
func (tc *TupleCounts) Add(t algebra.Tuple, n int) { tc.addHashed(t.Hash(), t, n) }

// addHashed is Add with the hash supplied by the caller; tests use it to
// force collisions.
func (tc *TupleCounts) addHashed(h uint64, t algebra.Tuple, n int) {
	bucket := tc.buckets[h]
	tc.size += n
	for i := range bucket {
		if bucket[i].t.Equal(t) {
			bucket[i].n += n
			return
		}
	}
	tc.buckets[h] = append(bucket, tupleCount{t: t, n: n})
}

// Count returns the multiplicity of t.
func (tc *TupleCounts) Count(t algebra.Tuple) int { return tc.countHashed(t.Hash(), t) }

func (tc *TupleCounts) countHashed(h uint64, t algebra.Tuple) int {
	for _, e := range tc.buckets[h] {
		if e.t.Equal(t) {
			return e.n
		}
	}
	return 0
}

// Remove lowers the multiplicity of t by one and reports whether a copy was
// present.
func (tc *TupleCounts) Remove(t algebra.Tuple) bool { return tc.removeHashed(t.Hash(), t) }

func (tc *TupleCounts) removeHashed(h uint64, t algebra.Tuple) bool {
	bucket := tc.buckets[h]
	for i := range bucket {
		if bucket[i].n > 0 && bucket[i].t.Equal(t) {
			bucket[i].n--
			tc.size--
			return true
		}
	}
	return false
}

// Counts returns the multiset as a hashed tuple → multiplicity map.
func (r *Relation) Counts() *TupleCounts {
	rows := r.Rows()
	tc := NewTupleCounts(len(rows))
	for _, t := range rows {
		tc.Add(t, 1)
	}
	return tc
}

// SubtractAll removes each tuple of o once from r (multiset monus applied in
// place): for each distinct tuple of o with multiplicity m, the first m equal
// live rows of r. Tuples of o that are absent from r are ignored, matching
// multiset difference semantics. It is the plain row loop that moves every
// surviving row and drops the cached views; the refresh merges use
// SubtractAllCompact, which removes the same rows by marking them.
func (r *Relation) SubtractAll(o *Relation) {
	if o.Len() == 0 {
		return
	}
	r.unshare()
	remove := o.Counts()
	kept := r.rows[:0]
	for i, t := range r.rows {
		if !r.Live(i) || remove.Remove(t) {
			continue
		}
		kept = append(kept, t)
	}
	clear(r.rows[len(kept):])
	r.rows = kept
	r.dead, r.ndead = nil, 0
	r.invalidate()
}

// EqualMultiset reports whether two relations hold exactly the same multiset
// of tuples (schema order of columns must match).
func EqualMultiset(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	ca := a.Counts()
	for _, t := range b.Rows() {
		if !ca.Remove(t) {
			return false
		}
	}
	return true
}

// render formats a tuple for debugging and test output. It is NOT used for
// hashing or equality — the hot paths hash typed values directly.
func render(t algebra.Tuple) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// SortedStrings renders every tuple and sorts the renderings; useful in tests
// for deterministic comparison output.
func (r *Relation) SortedStrings() []string {
	rows := r.Rows()
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = render(t)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------

// Delta carries the pending inserts and deletes for one base relation,
// mirroring the paper's δ+r and δ−r.
type Delta struct {
	Plus  *Relation
	Minus *Relation
}

// NewDelta creates an empty delta pair for the given schema.
func NewDelta(schema algebra.Schema) *Delta {
	return &Delta{Plus: NewRelation(schema), Minus: NewRelation(schema)}
}

// Empty reports whether both sides are empty.
func (d *Delta) Empty() bool { return d.Plus.Len() == 0 && d.Minus.Len() == 0 }

// ---------------------------------------------------------------------------

// Database is a named collection of relations plus their pending deltas.
type Database struct {
	relations map[string]*Relation
	deltas    map[string]*Delta
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		relations: make(map[string]*Relation),
		deltas:    make(map[string]*Delta),
	}
}

// Create registers an empty relation under a name.
func (db *Database) Create(name string, schema algebra.Schema) *Relation {
	if _, ok := db.relations[name]; ok {
		panic("storage: duplicate relation " + name)
	}
	r := NewRelation(schema)
	db.relations[name] = r
	db.deltas[name] = NewDelta(schema)
	return r
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.relations[name] }

// MustRelation returns the named relation or panics.
func (db *Database) MustRelation(name string) *Relation {
	r := db.relations[name]
	if r == nil {
		panic("storage: unknown relation " + name)
	}
	return r
}

// Delta returns the pending delta pair for a relation.
func (db *Database) Delta(name string) *Delta { return db.deltas[name] }

// LogInsert records a pending insert in the relation's δ+.
func (db *Database) LogInsert(name string, t algebra.Tuple) {
	db.deltas[name].Plus.Insert(t)
}

// LogDelete records a pending delete in the relation's δ−.
func (db *Database) LogDelete(name string, t algebra.Tuple) {
	db.deltas[name].Minus.Insert(t)
}

// Names returns the sorted relation names.
func (db *Database) Names() []string {
	out := make([]string, 0, len(db.relations))
	for n := range db.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
