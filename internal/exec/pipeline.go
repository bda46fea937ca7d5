package exec

// The operator engine: the operator-boundary Batch type, the chained kernels
// and the one per-operator arm (applyOp) the three plan walkers share. A plan
// interpreter passes Batches between operators instead of materialized row
// relations, and a pipeline gathers to []Value rows exactly once — at its sink
// (Batch.Materialize). A Batch is a logical relation in one of three forms:
//
//   - relation-backed: a *storage.Relation plus an optional column projection
//     (proj) and an optional selection vector (sel). Filters compose by
//     shrinking sel; projections compose by rewriting proj. Neither copies a
//     value, and the backing relation's ColView caches (typed vectors, key
//     hash columns) keep serving every downstream operator.
//   - join-backed: the two input batches plus parallel pick vectors — the
//     (build, probe) logical row pair behind every output row. A join copies
//     NO values: downstream filters compose the picks, downstream reads
//     gather straight through to the source storage, and a join feeding the
//     sink pays exactly one row gather.
//   - column-backed: freshly produced column slices ([][]algebra.Value), the
//     output form of concatenations.
//
// Row order and value payloads are fixed by construction, which is what the
// test oracle (internal/exec/equivtest) checks byte for byte at every
// partition count: filters keep row order, the join probes in probe order
// with each hash's build rows in build order, morsel ranges concatenate in
// range order, and every output value is gathered from the original tuples or
// column slices, never re-encoded. Values are carried as algebra.Value
// throughout, so Int-vs-Date and Float payloads survive exactly (a typed
// lane is used only inside predicate evaluation, where Value.Compare's
// semantics are reproduced — see batch.go).

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/storage"
)

// batchKeyHashes caches one key-column hash vector on a Batch, mirroring the
// ColView key-hash cache for column-backed batches.
type batchKeyHashes struct {
	cols []int
	h    []uint64
}

// Batch is a columnar intermediate result flowing across operator
// boundaries. Exactly one of rel (with rows cached), jl/jr, or cols is set.
type Batch struct {
	schema algebra.Schema
	n      int // logical row count

	// Relation-backed form: logical row i, column k reads
	// rows[sel[i]][proj[k]] (sel nil: physical row i; proj nil: identity).
	rel  *storage.Relation
	rows []algebra.Tuple
	proj []int
	sel  []int32

	// Join-backed form: source column s = proj[k] (proj nil: identity) over
	// the concatenated input schema; logical row i, column k reads the left
	// input at (s, jlPick[i]) when s < jlw, else the right input at
	// (s-jlw, jrPick[i]). Picks index LOGICAL rows of the inputs; sel is
	// never set (filters compose the picks instead).
	jl, jr *Batch
	jlw    int
	jlPick []int32
	jrPick []int32

	// Column-backed form: logical row i, column k reads cols[k][sel[i]].
	cols [][]algebra.Value

	// mat lazily caches fully gathered logical columns (column()); entries
	// are indexed by batch column and invalidated by any sel change.
	mat [][]algebra.Value

	// keys caches key-column hash vectors computed on this batch.
	keys []batchKeyHashes
}

// batchOf wraps a materialized relation as a zero-copy Batch.
func batchOf(r *storage.Relation) *Batch {
	return &Batch{schema: r.Schema(), n: r.Len(), rel: r, rows: r.Rows()}
}

// Len returns the logical row count.
func (b *Batch) Len() int { return b.n }

// Schema returns the batch schema.
func (b *Batch) Schema() algebra.Schema { return b.schema }

// srcCol maps a batch column to its backing relation column.
func (b *Batch) srcCol(k int) int {
	if b.proj == nil {
		return k
	}
	return b.proj[k]
}

// phys maps a logical row to its physical index in the backing storage.
func (b *Batch) phys(i int) int32 {
	if b.sel == nil {
		return int32(i)
	}
	return b.sel[i]
}

// side resolves a join-backed batch's column k to its source batch, the
// source's column index, and the pick vector carrying the row mapping.
func (b *Batch) side(k int) (src *Batch, col int, picks []int32) {
	s := b.srcCol(k)
	if s < b.jlw {
		return b.jl, s, b.jlPick
	}
	return b.jr, s - b.jlw, b.jrPick
}

// value reads the value at logical row i, batch column k.
func (b *Batch) value(k, i int) algebra.Value {
	if b.mat != nil && b.mat[k] != nil {
		return b.mat[k][i]
	}
	if b.jl != nil {
		src, col, picks := b.side(k)
		return src.value(col, int(picks[i]))
	}
	ri := i
	if b.sel != nil {
		ri = int(b.sel[i])
	}
	if b.rel != nil {
		return b.rows[ri][b.srcCol(k)]
	}
	return b.cols[k][ri]
}

// identity reports whether a relation-backed batch's projection is the
// identity over the backing relation's layout.
func (b *Batch) identity() bool {
	if b.proj == nil {
		return true
	}
	if len(b.proj) != len(b.rel.Schema()) {
		return false
	}
	for k, j := range b.proj {
		if k != j {
			return false
		}
	}
	return true
}

// appendColumn appends batch column k's logical values to dst.
func (b *Batch) appendColumn(dst []algebra.Value, k int) []algebra.Value {
	if b.rel != nil {
		src := b.srcCol(k)
		if b.sel == nil {
			for i := 0; i < b.n; i++ {
				dst = append(dst, b.rows[i][src])
			}
			return dst
		}
		for _, ri := range b.sel {
			dst = append(dst, b.rows[ri][src])
		}
		return dst
	}
	if b.jl != nil {
		src, col, picks := b.side(k)
		off := len(dst)
		if cap(dst)-off < b.n {
			nd := make([]algebra.Value, off, off+b.n)
			copy(nd, dst)
			dst = nd
		}
		dst = dst[:off+b.n]
		src.gatherInto(dst[off:], col, picks)
		return dst
	}
	c := b.cols[k]
	if b.sel == nil {
		return append(dst, c...)
	}
	for _, ri := range b.sel {
		dst = append(dst, c[ri])
	}
	return dst
}

// column returns batch column k as a dense logical slice, caching the gather.
// Callers must not mutate the result, and must call it before handing the
// batch to concurrent workers (it writes the mat cache).
func (b *Batch) column(k int) []algebra.Value {
	if b.cols != nil && b.sel == nil {
		return b.cols[k]
	}
	if b.mat == nil {
		b.mat = make([][]algebra.Value, len(b.schema))
	}
	if b.mat[k] == nil {
		b.mat[k] = b.appendColumn(make([]algebra.Value, 0, b.n), k)
	}
	return b.mat[k]
}

// gatherInto fills dst[o] with batch column col at logical row picks[o] — the
// join's output gather, reading straight through the backing storage. A
// join-backed batch composes its own pick vector with picks and recurses to
// the source, so chained joins still gather once from original storage.
func (b *Batch) gatherInto(dst []algebra.Value, col int, picks []int32) {
	if b.mat != nil && b.mat[col] != nil {
		c := b.mat[col]
		for o, i := range picks {
			dst[o] = c[i]
		}
		return
	}
	if b.jl != nil {
		src, scol, sp := b.side(col)
		cp := make([]int32, len(picks))
		for o, i := range picks {
			cp[o] = sp[i]
		}
		src.gatherInto(dst, scol, cp)
		return
	}
	if b.rel != nil {
		src := b.srcCol(col)
		if b.sel == nil {
			for o, i := range picks {
				dst[o] = b.rows[i][src]
			}
			return
		}
		for o, i := range picks {
			dst[o] = b.rows[b.sel[i]][src]
		}
		return
	}
	c := b.cols[col]
	if b.sel == nil {
		for o, i := range picks {
			dst[o] = c[i]
		}
		return
	}
	for o, i := range picks {
		dst[o] = c[b.sel[i]]
	}
}

// gatherStrided fills dst[o*stride] with batch column col at logical row
// picks[o] — the sink's per-column write into a flat row arena, so a
// join-backed batch materializes with one value copy per cell.
func (b *Batch) gatherStrided(dst []algebra.Value, stride, col int, picks []int32) {
	if b.mat != nil && b.mat[col] != nil {
		c := b.mat[col]
		for o, i := range picks {
			dst[o*stride] = c[i]
		}
		return
	}
	if b.jl != nil {
		src, scol, sp := b.side(col)
		cp := make([]int32, len(picks))
		for o, i := range picks {
			cp[o] = sp[i]
		}
		src.gatherStrided(dst, stride, scol, cp)
		return
	}
	if b.rel != nil {
		src := b.srcCol(col)
		if b.sel == nil {
			for o, i := range picks {
				dst[o*stride] = b.rows[i][src]
			}
			return
		}
		for o, i := range picks {
			dst[o*stride] = b.rows[b.sel[i]][src]
		}
		return
	}
	c := b.cols[col]
	if b.sel == nil {
		for o, i := range picks {
			dst[o*stride] = c[i]
		}
		return
	}
	for o, i := range picks {
		dst[o*stride] = c[b.sel[i]]
	}
}

// subset restricts the batch to the given logical rows, in order — the
// survivor step of filters and dedup. A join-backed batch gathers both pick
// vectors (its only per-row state); the other forms compose a selection.
func (b *Batch) subset(idx []int32) *Batch {
	if b.jl != nil {
		lp := make([]int32, len(idx))
		rp := make([]int32, len(idx))
		for o, i := range idx {
			lp[o] = b.jlPick[i]
			rp[o] = b.jrPick[i]
		}
		return &Batch{schema: b.schema, n: len(idx), proj: b.proj,
			jl: b.jl, jr: b.jr, jlw: b.jlw, jlPick: lp, jrPick: rp}
	}
	sel := make([]int32, len(idx))
	for o, i := range idx {
		sel[o] = b.phys(int(i))
	}
	return &Batch{schema: b.schema, n: len(idx), rel: b.rel, rows: b.rows, proj: b.proj, cols: b.cols, sel: sel}
}

// eqIntSlices reports element-wise equality of two int slices.
func eqIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// keyHashes returns the typed hash of the key columns (batch indexes) for
// every logical row — element-wise equal to Tuple.HashCols on the gathered
// rows. Relation-backed batches read the ColView's cached hash column (so a
// base relation hashed by a previous operator, epoch, or shard ship never
// rehashes); join- and column-backed batches fold Value.HashInto column-wise
// and cache on the batch. Not safe for concurrent use (call before fan-out).
func (b *Batch) keyHashes(cols []int, par storage.Par) []uint64 {
	for _, k := range b.keys {
		if eqIntSlices(k.cols, cols) {
			return k.h
		}
	}
	var h []uint64
	if b.rel != nil {
		mapped := cols
		if b.proj != nil {
			mapped = make([]int, len(cols))
			for x, c := range cols {
				mapped[x] = b.proj[c]
			}
		}
		full := b.rel.ColView().KeyHashes(mapped, par)
		if b.sel == nil {
			h = full
		} else {
			h = make([]uint64, b.n)
			for i, ri := range b.sel {
				h[i] = full[ri]
			}
		}
	} else {
		h = make([]uint64, b.n)
		slices := make([][]algebra.Value, len(cols))
		for x, c := range cols {
			slices[x] = b.column(c)
		}
		seed := algebra.HashSeed()
		fill := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := seed
				for _, cs := range slices {
					v = cs[i].HashInto(v)
				}
				h[i] = v
			}
		}
		par = par.Norm()
		if !par.Enabled() || b.n < storage.ParMinRows {
			fill(0, b.n)
		} else {
			ranges := storage.MorselRanges(b.n, par.Partitions)
			forRanges(ranges, par.Workers, func(_, lo, hi int) { fill(lo, hi) })
		}
	}
	kc := make([]int, len(cols))
	copy(kc, cols)
	b.keys = append(b.keys, batchKeyHashes{cols: kc, h: h})
	return h
}

// project re-expresses the batch in the target schema without moving a
// value: relation- and join-backed batches rewrite their projection, a
// column-backed batch rearranges its column slice headers.
func (b *Batch) project(target algebra.Schema, par storage.Par) *Batch {
	if schemaEqual(b.schema, target) {
		return b
	}
	idx := projIndexes(b.schema, target)
	out := &Batch{schema: target, n: b.n, rel: b.rel, rows: b.rows, sel: b.sel,
		jl: b.jl, jr: b.jr, jlw: b.jlw, jlPick: b.jlPick, jrPick: b.jrPick}
	if b.rel != nil || b.jl != nil {
		proj := make([]int, len(idx))
		for k, j := range idx {
			proj[k] = b.srcCol(j)
		}
		out.proj = proj
	} else {
		cols := make([][]algebra.Value, len(idx))
		for k, j := range idx {
			cols[k] = b.cols[j]
		}
		out.cols = cols
	}
	if b.mat != nil {
		m := make([][]algebra.Value, len(idx))
		for k, j := range idx {
			m[k] = b.mat[j]
		}
		out.mat = m
	}
	return out
}

// leafRef is one sink column resolved through any chain of join-backed
// batches: read src (not join-backed at col) at picks[i] for output row i.
type leafRef struct {
	src   *Batch
	col   int
	picks []int32
}

// leafRefs resolves every output column of a join-backed batch to its leaf
// source, composing pick vectors ONCE per distinct join-chain side (shared
// by all the columns that ride it) rather than once per column per level.
func (b *Batch) leafRefs(width int) []leafRef {
	type edge struct{ outer, inner *int32 }
	memo := make(map[edge][]int32)
	compose := func(outer, inner []int32) []int32 {
		if len(outer) == 0 {
			return outer
		}
		key := edge{&outer[0], &inner[0]}
		cp, ok := memo[key]
		if !ok {
			cp = make([]int32, len(outer))
			for o, i := range outer {
				cp[o] = inner[i]
			}
			memo[key] = cp
		}
		return cp
	}
	var resolve func(src *Batch, col int, picks []int32) leafRef
	resolve = func(src *Batch, col int, picks []int32) leafRef {
		if src.jl == nil || (src.mat != nil && src.mat[col] != nil) {
			return leafRef{src, col, picks}
		}
		s2, c2, p2 := src.side(col)
		return resolve(s2, c2, compose(picks, p2))
	}
	refs := make([]leafRef, width)
	for k := 0; k < width; k++ {
		src, col, picks := b.side(k)
		refs[k] = resolve(src, col, picks)
	}
	return refs
}

// Materialize gathers the batch to a row relation in the target schema — the
// pipeline's single sink-side row construction. An identity batch over an
// unfiltered relation returns the relation itself, and a same-schema filtered
// batch aliases the surviving tuples.
func (b *Batch) Materialize(target algebra.Schema, par storage.Par) *storage.Relation {
	bb := b.project(target, par)
	alias := bb.rel != nil && bb.identity() && schemaEqual(bb.rel.Schema(), target)
	if alias && bb.sel == nil {
		return bb.rel
	}
	par = par.Norm()
	width := len(target)
	var refs []leafRef
	if bb.jl != nil {
		refs = bb.leafRefs(width)
	}
	emit := func(lo, hi int) []algebra.Tuple {
		acc := make([]algebra.Tuple, 0, hi-lo)
		if alias {
			for _, ri := range bb.sel[lo:hi] {
				acc = append(acc, bb.rows[ri])
			}
			return acc
		}
		if bb.jl != nil {
			if hi == lo {
				return acc
			}
			flat := make([]algebra.Value, (hi-lo)*width)
			for k := 0; k < width; k++ {
				r := refs[k]
				r.src.gatherStrided(flat[k:], width, r.col, r.picks[lo:hi])
			}
			for j := 0; j < hi-lo; j++ {
				acc = append(acc, algebra.Tuple(flat[j*width:(j+1)*width:(j+1)*width]))
			}
			return acc
		}
		var arena tupleArena
		if bb.rel != nil {
			for i := lo; i < hi; i++ {
				ri := int(bb.phys(i))
				row := arena.alloc(width)
				for k := range row {
					row[k] = bb.rows[ri][bb.srcCol(k)]
				}
				acc = append(acc, row)
			}
			return acc
		}
		for i := lo; i < hi; i++ {
			ri := int(bb.phys(i))
			row := arena.alloc(width)
			for k := range row {
				row[k] = bb.cols[k][ri]
			}
			acc = append(acc, row)
		}
		return acc
	}
	if !par.Enabled() || bb.n < storage.ParMinRows {
		out := storage.NewRelation(target)
		out.Reserve(bb.n)
		out.AppendAll(emit(0, bb.n))
		return out
	}
	ranges := storage.MorselRanges(bb.n, par.Partitions)
	outs := make([][]algebra.Tuple, len(ranges))
	forRanges(ranges, par.Workers, func(ri, lo, hi int) { outs[ri] = emit(lo, hi) })
	return concatRanges(target, outs)
}

// ---------------------------------------------------------------------------
// Row-at-a-time evaluation over batch values (the non-dense fallback paths).

// evalBoundArithAt evaluates a batch-schema compiled arithmetic tree at
// logical row i.
func evalBoundArithAt(a *algebra.BoundArith, b *Batch, i int) float64 {
	if a.Leaf() {
		if a.Idx >= 0 {
			return b.value(a.Idx, i).AsFloat()
		}
		return a.Val.AsFloat()
	}
	lf, rf := evalBoundArithAt(a.L, b, i), evalBoundArithAt(a.R, b, i)
	switch a.Op {
	case algebra.Add:
		return lf + rf
	case algebra.Sub:
		return lf - rf
	case algebra.Mul:
		return lf * rf
	}
	return lf / rf
}

// evalCmpAt evaluates one batch-schema compiled conjunct at logical row i.
func evalCmpAt(c algebra.BoundCmp, b *Batch, i int) bool {
	l, r := c.LVal, c.RVal
	if c.LArith != nil {
		l = algebra.NewFloat(evalBoundArithAt(c.LArith, b, i))
	} else if c.LIdx >= 0 {
		l = b.value(c.LIdx, i)
	}
	if c.RArith != nil {
		r = algebra.NewFloat(evalBoundArithAt(c.RArith, b, i))
	} else if c.RIdx >= 0 {
		r = b.value(c.RIdx, i)
	}
	return opOK(c.Op, l.Compare(r))
}

// evalCNFAt evaluates a compiled CNF at logical row i: every conjunct and at
// least one alternative of every clause — BoundPred.Eval over batch values.
func evalCNFAt(cmps []algebra.BoundCmp, clauses [][]algebra.BoundCmp, b *Batch, i int) bool {
	for _, c := range cmps {
		if !evalCmpAt(c, b, i) {
			return false
		}
	}
	for _, cl := range clauses {
		any := false
		for _, c := range cl {
			if evalCmpAt(c, b, i) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}

// batchEqualOn confirms a join key match across two batches (EqualOn over
// logical rows).
func batchEqualOn(a *Batch, ai int, ac []int, b *Batch, bi int, bc []int) bool {
	for x := range ac {
		if !a.value(ac[x], ai).Equal(b.value(bc[x], bi)) {
			return false
		}
	}
	return true
}

// batchRowEqual reports full-row equality of two logical rows of one batch.
func batchRowEqual(b *Batch, i, j int) bool {
	for k := range b.schema {
		if !b.value(k, i).Equal(b.value(k, j)) {
			return false
		}
	}
	return true
}

// value reads the side at a candidate (build row, probe row) pair.
func (s *twoSide) value(bi, pi int) algebra.Value {
	switch {
	case s.arith != nil:
		return algebra.NewFloat(s.arith.eval(bi, pi))
	case s.b == nil:
		return s.val
	case s.build:
		return s.b.value(s.idx, bi)
	}
	return s.b.value(s.idx, pi)
}

// row is the stored row a lane reads for the side at a candidate pair.
func (s *twoSide) row(bi, pi int) int {
	i := pi
	if s.build {
		i = bi
	}
	if s.sel != nil {
		i = int(s.sel[i])
	}
	return i
}

// eval evaluates the two-sided arithmetic tree at a candidate pair.
func (a *twoArith) eval(bi, pi int) float64 {
	if a.l == nil {
		return a.leaf.value(bi, pi).AsFloat()
	}
	lf, rf := a.l.eval(bi, pi), a.r.eval(bi, pi)
	switch a.op {
	case algebra.Add:
		return lf + rf
	case algebra.Sub:
		return lf - rf
	case algebra.Mul:
		return lf * rf
	}
	return lf / rf
}

// eval evaluates one two-sided comparison at a candidate pair: through its
// lane (a one-row window on each side) where it has one, as Values otherwise.
func (c *twoCmp) eval(bi, pi int) bool {
	switch ln := c.ln; {
	case ln == nil:
		return opOK(c.op, c.s[0].value(bi, pi).Compare(c.s[1].value(bi, pi)))
	case ln.kind == laneConst:
		return ln.ok
	default:
		return ln.mask(c.s[ln.l.src].row(bi, pi), c.s[ln.r.src].row(bi, pi), 1)&1 != 0
	}
}

// eval evaluates the two-sided residual at a candidate pair.
func (rp *residualPred) eval(bi, pi int) bool {
	for i := range rp.cs {
		if !rp.cs[i].eval(bi, pi) {
			return false
		}
	}
	for _, cl := range rp.clauses {
		any := false
		for i := range cl {
			if cl[i].eval(bi, pi) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Chained operator kernels.

// remapThroughProj rewrites a batch-schema compile (conjuncts + clauses,
// including arithmetic leaves) into the backing relation's layout, so the
// dense bitmap kernels of batch.go evaluate it directly over the relation's
// column vectors.
func (b *Batch) remapThroughProj(cmps []algebra.BoundCmp, clauses [][]algebra.BoundCmp) ([]algebra.BoundCmp, [][]algebra.BoundCmp) {
	if b.proj == nil {
		return cmps, clauses
	}
	f := func(i int) int { return b.proj[i] }
	one := func(c algebra.BoundCmp) algebra.BoundCmp {
		if c.LIdx >= 0 {
			c.LIdx = f(c.LIdx)
		}
		if c.RIdx >= 0 {
			c.RIdx = f(c.RIdx)
		}
		c.LArith = c.LArith.Remap(f)
		c.RArith = c.RArith.Remap(f)
		return c
	}
	oc := make([]algebra.BoundCmp, len(cmps))
	for i, c := range cmps {
		oc[i] = one(c)
	}
	var ocl [][]algebra.BoundCmp
	if len(clauses) > 0 {
		ocl = make([][]algebra.BoundCmp, len(clauses))
		for i, cl := range clauses {
			ncl := make([]algebra.BoundCmp, len(cl))
			for j, c := range cl {
				ncl[j] = one(c)
			}
			ocl[i] = ncl
		}
	}
	return oc, ocl
}

// filterSel evaluates keep over every logical row and returns the surviving
// LOGICAL indexes in order — subset() turns them into the next batch.
func (b *Batch) filterSel(par storage.Par, keep func(i int) bool) []int32 {
	par = par.Norm()
	if !par.Enabled() || b.n < storage.ParMinRows {
		out := make([]int32, 0, b.n)
		for i := 0; i < b.n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	ranges := storage.MorselRanges(b.n, par.Partitions)
	outs := make([][]int32, len(ranges))
	forRanges(ranges, par.Workers, func(ri, lo, hi int) {
		acc := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if keep(i) {
				acc = append(acc, int32(i))
			}
		}
		outs[ri] = acc
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]int32, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// chainFilter applies a predicate to a batch, composing with any existing
// selection. An unfiltered relation-backed batch evaluates through the dense
// vectorized bitmap kernels (remapping the compile through its projection);
// already-selected and column-backed batches evaluate the compiled CNF
// row-at-a-time over batch values with the same Compare semantics.
func chainFilter(in *Batch, pred algebra.Pred, par storage.Par) *Batch {
	bp := pred.Bind(in.schema)
	cmps, clauses := bp.Cmps(), bp.Clauses()
	if len(cmps) == 0 && len(clauses) == 0 {
		return in
	}
	if in.rel != nil && in.sel == nil {
		rc, rcl := in.remapThroughProj(cmps, clauses)
		bm := selBitmapCmps(in.rel, rc, rcl, par)
		cnt := bm.Count()
		if cnt == in.n {
			return in
		}
		return &Batch{schema: in.schema, n: cnt, rel: in.rel, rows: in.rows, proj: in.proj, sel: bm.Indices()}
	}
	var keep func(i int) bool
	if in.rel != nil {
		rc, rcl := in.remapThroughProj(cmps, clauses)
		rbp := algebra.NewBoundPredCNF(rc, rcl)
		keep = func(i int) bool { return rbp.Eval(in.rows[in.sel[i]]) }
	} else {
		keep = func(i int) bool { return evalCNFAt(cmps, clauses, in, i) }
	}
	return in.subset(in.filterSel(par, keep))
}

// chainSelect is the chained select operator: filter, then zero-copy
// projection to the operator's target schema.
func chainSelect(in *Batch, pred algebra.Pred, target algebra.Schema, par storage.Par) *Batch {
	return chainFilter(in, pred, par).project(target, par)
}

// joinTables recycles join build tables across joins: a table's arrays are
// dead once its probe loop returns (the output batch holds pick vectors only),
// so the sixteen update steps of a refresh cycle, and the cycles after it,
// build into the same few arrays.
var joinTables = sync.Pool{New: func() any { return new(storage.ProbeTable) }}

// chainJoin is the hash join. The build side becomes a storage.ProbeTable
// over its key-hash column; the probe side — in a differential join the
// stored relation — is never hashed or looked up row by row: its carried
// hash column is scanned behind the table's bit filter (engaged when the
// build side is much the smaller), and only rows that pass go on to the
// table. Emission is probe order, then build insertion order (the order the
// oracle's row join defines); hash matches are confirmed by value and
// residual conjuncts evaluated two-sided. The output is a LAZY join-backed
// batch — just the two pick vectors over its inputs. No output value is copied
// here; downstream operators read through the picks, and the sink's
// Materialize performs the single gather.
func chainJoin(l, r *Batch, pred algebra.Pred, buildIsLeft bool, target algebra.Schema, par storage.Par) *Batch {
	par = par.Norm()
	ls, rs := l.schema, r.schema
	outSchema := ls.Concat(rs)
	if l.n == 0 || r.n == 0 {
		// No pair to emit: skip hashing, the table and the walk over the other
		// side (an empty build side leaves the table's filter disengaged).
		return (&Batch{schema: outSchema, jl: l, jr: r, jlw: len(ls)}).project(target, par)
	}
	lCols, rCols, residual := splitJoinPred(pred, ls, rs)
	if len(lCols) == 0 {
		// No equi-conjunct: the row nested loop on materialized inputs
		// (orientation-free: the outer side is always l).
		lr, rr := l.Materialize(ls, par), r.Materialize(rs, par)
		return batchOf(nestedLoop(lr, rr, pred, par)).project(target, par)
	}
	build, bCols := l, lCols
	probe, pCols := r, rCols
	if !buildIsLeft {
		build, bCols = r, rCols
		probe, pCols = l, lCols
	}
	bh := build.keyHashes(bCols, par)
	ph := probe.keyHashes(pCols, par)
	res := compileResidual(residual, pred.Clauses, outSchema, len(ls), build, probe, buildIsLeft)

	tab := joinTables.Get().(*storage.ProbeTable)
	defer joinTables.Put(tab)
	tab.Build(bh, probe.n)
	emitRange := func(lo, hi int) (bPick, pPick []int32) {
		for j := lo; j < hi; j++ {
			h := ph[j]
			if !tab.MayContain(h) {
				continue
			}
			for bi := tab.First(h); bi >= 0; bi = tab.Next(bi) {
				if !batchEqualOn(probe, j, pCols, build, int(bi), bCols) {
					continue // hash collision across distinct keys
				}
				if res != nil && !res.eval(int(bi), j) {
					continue
				}
				bPick = append(bPick, bi)
				pPick = append(pPick, int32(j))
			}
		}
		return bPick, pPick
	}
	var bPick, pPick []int32
	if !par.Enabled() || probe.n < storage.ParMinRows {
		bPick, pPick = emitRange(0, probe.n)
	} else {
		ranges := storage.MorselRanges(probe.n, par.Partitions)
		bOuts := make([][]int32, len(ranges))
		pOuts := make([][]int32, len(ranges))
		forRanges(ranges, par.Workers, func(ri, lo, hi int) {
			bOuts[ri], pOuts[ri] = emitRange(lo, hi)
		})
		total := 0
		for _, o := range bOuts {
			total += len(o)
		}
		bPick = make([]int32, 0, total)
		pPick = make([]int32, 0, total)
		for ri := range bOuts {
			bPick = append(bPick, bOuts[ri]...)
			pPick = append(pPick, pOuts[ri]...)
		}
	}
	out := &Batch{schema: outSchema, n: len(bPick), jlw: len(ls)}
	if buildIsLeft {
		out.jl, out.jr = build, probe
		out.jlPick, out.jrPick = bPick, pPick
	} else {
		out.jl, out.jr = probe, build
		out.jlPick, out.jrPick = pPick, bPick
	}
	return out.project(target, par)
}

// chainBuildAgg folds a batch into mergeable aggregation state straight from
// column slices — AggTable.absorbColsOne never sees a row tuple. Large
// batches scatter by group hash and build partition tables merged in
// partition order: group keys are disjoint across partitions (same key ⇒
// same hash ⇒ same partition), so the merge is pure adoption and the final
// state equals a sequential build's. The hint is an optimizer estimate and
// can be wildly high (cardinality products); there can never be more groups
// than input rows, so it is clamped before it reaches a map pre-size.
func chainBuildAgg(in *Batch, groupBy []algebra.ColRef, specs []algebra.AggSpec, out algebra.Schema, par storage.Par, hint int) *AggTable {
	par = par.Norm()
	if hint > in.n {
		hint = in.n
	}
	at := NewAggTableSized(in.schema, groupBy, specs, out, hint)
	if in.n == 0 {
		return at
	}
	gh := in.keyHashes(at.groupBy, par)
	keys := make([][]algebra.Value, len(at.groupBy))
	for k, c := range at.groupBy {
		keys[k] = in.column(c)
	}
	aggs := make([][]algebra.Value, len(at.aggCols))
	for s, c := range at.aggCols {
		if c >= 0 {
			aggs[s] = in.column(c)
		}
	}
	if !par.Enabled() || in.n < storage.ParMinRows {
		for i := 0; i < in.n; i++ {
			at.absorbColsOne(gh[i], i, keys, aggs, 1)
		}
		return at
	}
	gIdx := storage.ScatterByHash(gh, par.Partitions)
	tables := make([]*AggTable, par.Partitions)
	storage.ForParts(par.Partitions, par.Workers, func(p int) {
		t := NewAggTableSized(in.schema, groupBy, specs, out, hint/par.Partitions+1)
		for _, i := range gIdx[p] {
			t.absorbColsOne(gh[i], int(i), keys, aggs, 1)
		}
		tables[p] = t
	})
	at = tables[0]
	for _, t := range tables[1:] {
		at.merge(t)
	}
	return at
}

// chainAgg is the chained from-scratch aggregation: column-native state
// build, then the (small) aggregate output re-enters the pipeline as a
// relation-backed batch.
func chainAgg(in *Batch, op *dag.Op, target algebra.Schema, par storage.Par, hint int) *Batch {
	at := chainBuildAgg(in, op.GroupBy, op.Aggs, target, par, hint)
	return batchOf(projectToP(at.Rows(), target, par))
}

// chainConcat is the chained n-ary union: every part projects (zero-copy) to
// the target schema and its columns append densely, in part order — the row
// union's exact row order.
func chainConcat(parts []*Batch, target algebra.Schema, par storage.Par) *Batch {
	if len(parts) == 1 {
		return parts[0].project(target, par)
	}
	total := 0
	for _, p := range parts {
		total += p.n
	}
	cols := make([][]algebra.Value, len(target))
	for k := range cols {
		cols[k] = make([]algebra.Value, 0, total)
	}
	for _, p := range parts {
		pp := p.project(target, par)
		for k := range cols {
			cols[k] = pp.appendColumn(cols[k], k)
		}
	}
	return &Batch{schema: target, n: total, cols: cols}
}

// chainMinus is the multiset difference: both sides gather to rows
// (difference is a sink for its inputs), storage.ParMinusCOW removes one left
// row per right row in left order, and the result re-enters the pipeline.
func chainMinus(l, r *Batch, target algebra.Schema, par storage.Par) *Batch {
	lr := l.Materialize(l.schema, par)
	rr := r.Materialize(l.schema, par)
	return batchOf(storage.ParMinusCOW(lr, rr, par)).project(target, par)
}

// chainDedup is the chained duplicate elimination: it keys on the full-row
// hash column, keeps first occurrences in logical order by value
// confirmation, and emits the survivors as a selection over the input batch
// — then projects to the target schema.
func chainDedup(in *Batch, target algebra.Schema, par storage.Par) *Batch {
	if in.n == 0 {
		return in.project(target, par)
	}
	all := make([]int, len(in.schema))
	for k := range all {
		all[k] = k
	}
	h := in.keyHashes(all, par)
	seen := make(map[uint64][]int32, in.n)
	firsts := make([]int32, 0, in.n)
	for i := 0; i < in.n; i++ {
		bucket := seen[h[i]]
		dup := false
		for _, prev := range bucket {
			if batchRowEqual(in, i, int(prev)) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h[i]] = append(bucket, int32(i))
		firsts = append(firsts, int32(i))
	}
	return in.subset(firsts).project(target, par)
}

// applyOp evaluates one non-leaf operator over its already-resolved input
// batches — the per-operator arm of every plan walker. Run, EvalNode and the
// differential interpreter differ only in how they resolve a leaf and a
// child (plan node, DAG node, differential) and in who picks a join's build
// side (buildLeft; ignored by every other operator).
func applyOp(op *dag.Op, in []*Batch, buildLeft bool, target algebra.Schema, par storage.Par, hint int) *Batch {
	switch op.Kind {
	case dag.OpSelect:
		return chainSelect(in[0], op.Pred, target, par)
	case dag.OpProject:
		return in[0].project(target, par)
	case dag.OpJoin:
		return chainJoin(in[0], in[1], op.Pred, buildLeft, target, par)
	case dag.OpAggregate:
		return chainAgg(in[0], op, target, par, hint)
	case dag.OpUnion:
		return chainConcat(in, target, par)
	case dag.OpMinus:
		return chainMinus(in[0], in[1], target, par)
	case dag.OpDedup:
		return chainDedup(in[0], target, par)
	}
	panic("exec: unexpected op kind " + op.Kind.String())
}

// buildOnLeft is the size-based build-side rule of walkers with no plan-time
// estimate: build on the left input unless the right is strictly smaller.
func buildOnLeft(in []*Batch) bool {
	return len(in) < 2 || !(in[1].Len() < in[0].Len())
}
