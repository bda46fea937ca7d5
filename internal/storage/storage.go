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
	"sync/atomic"

	"repro/internal/algebra"
)

// Relation is an in-memory multiset of tuples with a fixed schema.
// Duplicates are represented positionally (a tuple may appear several times).
// A relation version may additionally carry a cached hash-partition view
// (PartView, partition.go) used by the shard layer and the delete-merge, and a
// cached column view (ColView, colview.go) used by the columnar operator
// kernels; the refresh merges (merge.go) carry both forward, any other
// in-place mutation drops them.
type Relation struct {
	schema algebra.Schema
	rows   []algebra.Tuple
	part   atomic.Pointer[PartView]
	colv   atomic.Pointer[ColView]
	// Array sharing between copy-on-write versions (merge.go). claimed: a
	// UnionCOW child owns the capacity behind this version's arrays, so this
	// version must not append into it. shares: this version's arrays alias
	// another version's, so it must not rewrite them in place. published: a
	// snapshot holds this version (PublishState), so nothing about it may
	// change again; the merge entry points derive a new version instead.
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

// Len returns the number of tuples (counting duplicates).
func (r *Relation) Len() int { return len(r.rows) }

// Rows returns the rows, clipped to their length (the capacity behind them
// may belong to a later version). Callers must not mutate the slice.
func (r *Relation) Rows() []algebra.Tuple { return clip(r.rows) }

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
	r.rows = append(r.rows, o.rows...)
	r.invalidate()
}

// ReplaceRows swaps the relation's contents wholesale, dropping any cached
// partition view. The recovery boot path uses it to install spilled rows
// (which must match the schema arity — checked once) into freshly created
// relations, and the executor's sink to install the rows it gathered; the
// given slice is adopted, not copied.
func (r *Relation) ReplaceRows(rows []algebra.Tuple) {
	for _, t := range rows {
		if len(t) != len(r.schema) {
			panic(fmt.Sprintf("storage: tuple arity %d does not match schema arity %d",
				len(t), len(r.schema)))
		}
	}
	r.rows = rows
	r.invalidate()
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.schema)
	out.rows = make([]algebra.Tuple, len(r.rows))
	for i, t := range r.rows {
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
	tc := NewTupleCounts(len(r.rows))
	for _, t := range r.rows {
		tc.Add(t, 1)
	}
	return tc
}

// SubtractAll removes each tuple of o once from r (multiset monus applied in
// place). Tuples of o that are absent from r are ignored, matching multiset
// difference semantics.
func (r *Relation) SubtractAll(o *Relation) {
	if o.Len() == 0 {
		return
	}
	r.unshare()
	remove := o.Counts()
	kept := r.rows[:0]
	for _, t := range r.rows {
		if remove.Remove(t) {
			continue
		}
		kept = append(kept, t)
	}
	r.rows = kept
	r.invalidate()
}

// EqualMultiset reports whether two relations hold exactly the same multiset
// of tuples (schema order of columns must match).
func EqualMultiset(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	ca := a.Counts()
	for _, t := range b.rows {
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
	out := make([]string, len(r.rows))
	for i, t := range r.rows {
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
