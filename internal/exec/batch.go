package exec

// Vectorized predicate kernels the chained operators (pipeline.go) are built
// on: selection over typed column vectors into a Bitmap, and the two-sided
// residual compile of join predicates.
//
// A conjunct is compiled once per filter (or per join) into a lane: laneOf is
// the one table mapping the payload classes of its two sides — as stored
// (storage.ColVec.Rep), not as declared — to a dense typed loop over a coerced
// operand. Every lane reproduces algebra.Value.Compare exactly (NaN as a
// singleton class before every numeric, -0.0 equal to 0.0, integers against
// floats as exact reals, numerics before strings), which is what keeps the
// engine byte-identical to the row oracle of internal/exec/equivtest; a
// coercion that would not be exact is not taken. Only a column holding more
// than one payload class (RepMixed) is still compared Value by Value.

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Selection: predicate → selection bitmap over column vectors.

// selBitmapCmps evaluates a compiled CNF predicate (conjuncts + clauses whose
// indexes refer to the relation's own layout — chainFilter remaps a
// batch-schema compile through the batch's projection) into a selection
// bitmap whose bit order is row order. The first conjunct fills the bitmap;
// later conjuncts compose by clearing set bits. Disjunctive clauses evaluate
// in one vectorized pass each: every alternative fills a shared scratch bitmap
// — fill mode only ever sets bits, so alternatives OR together for free — and
// the clause verdict is ANDed into the main bitmap word-wise.
func selBitmapCmps(in *storage.Relation, cmps []algebra.BoundCmp, clauses [][]algebra.BoundCmp) *Bitmap {
	n := in.Len()
	bm := NewBitmap(n)
	if len(cmps) == 0 && len(clauses) == 0 {
		bm.SetAll()
		return bm
	}
	cv := in.ColView()
	rows := in.Rows()
	compile := func(cs []algebra.BoundCmp) []lane {
		out := make([]lane, len(cs))
		for i, c := range cs {
			out[i] = compileLane(c, cv)
		}
		return out
	}
	lanes := compile(cmps)
	clauseLanes := make([][]lane, len(clauses))
	for i, cl := range clauses {
		clauseLanes[i] = compile(cl)
	}
	var scratch *Bitmap
	if len(clauses) > 0 {
		scratch = NewBitmap(n)
	}
	for i, ln := range lanes {
		ln.apply(bm, i == 0, cv, rows, 0, n)
	}
	filled := len(lanes) > 0
	for _, cl := range clauseLanes {
		scratch.ZeroWords(0, n)
		for _, ln := range cl {
			// Fill mode for every alternative: set-only writes compose the
			// disjunction in the scratch bitmap.
			ln.apply(scratch, true, cv, rows, 0, n)
		}
		if filled {
			bm.AndWords(scratch, 0, n)
		} else {
			bm.CopyWords(scratch, 0, n)
			filled = true
		}
	}
	return bm
}

// ---------------------------------------------------------------------------
// Lanes: one conjunct resolved to one typed loop.

// operand is one side of a conjunct: a literal, or a vector of one payload
// class — a stored column, or an arithmetic tree, which is a float lane
// evaluated range by range. rep RepMixed marks a side with no single class.
type operand struct {
	rep storage.ColRep
	i   []int64 // the payload of class rep: row k is element k-off
	f   []float64
	s   []string
	off int
	lit bool
	val algebra.Value // the literal; in a lane, coerced to the other side's class
	// arith is the tree behind a float lane of the selection kernel; apply
	// evaluates it into f for each range.
	arith *algebra.BoundArith
	// src is the compiler's own tag, carried through laneOf's side swaps: the
	// column (selection), the conjunct side (join residual).
	src int
}

type laneKind uint8

const (
	laneConst     laneKind = iota // one verdict for every row (lane.ok)
	laneRows                      // a RepMixed side: Value.Compare row by row
	laneBigIntLit                 // float rows × an integer float64 cannot hold: exact, row by row
	laneIntLit                    // the dense lanes: rows × a literal of their own class…
	laneFloatLit
	laneStrLit
	laneIntInt // …and rows × rows
	laneStrStr
	laneFloatFloat
	laneIntFloat
)

// lane is a compiled conjunct: which loop runs, over which operands. The
// loops evaluate EQ, GT or GE; the other three operators are their
// complements (neg). That holds under IEEE comparison too: for a non-NaN c,
// Value.Compare's `x < c` — true of NaN rows — is exactly !(x >= c).
type lane struct {
	kind laneKind
	op   algebra.CmpOp
	neg  bool
	ok   bool // laneConst's verdict
	l, r operand
}

// splitOp writes an operator as EQ, GT or GE and whether to complement it.
func splitOp(op algebra.CmpOp) (algebra.CmpOp, bool) {
	switch op {
	case algebra.NE:
		return algebra.EQ, true
	case algebra.LE:
		return algebra.GT, true
	case algebra.LT:
		return algebra.GE, true
	}
	return op, false
}

func constLane(ok bool) lane { return lane{kind: laneConst, ok: ok} }

// colsKind is the rows × rows lane of two sides of one class.
var colsKind = [...]laneKind{storage.RepInt: laneIntInt, storage.RepFloat: laneFloatFloat, storage.RepStr: laneStrStr}

// laneOf is the compile table: operator and operand classes to lane. A literal
// ends up on the right and, across the numeric classes, the integers on the
// left. A coercion is exact or not taken.
func laneOf(op algebra.CmpOp, l, r operand) lane {
	if l.lit {
		if r.lit {
			return constLane(opOK(op, l.val.Compare(r.val)))
		}
		l, r, op = r, l, swapOp[op]
	}
	switch {
	case l.rep == storage.RepMixed || r.rep == storage.RepMixed:
		return lane{kind: laneRows, op: op, l: l, r: r}
	case l.rep == storage.RepStr && r.rep != storage.RepStr: // every string orders after every numeric
		return constLane(opOK(op, 1))
	case l.rep != storage.RepStr && r.rep == storage.RepStr:
		return constLane(opOK(op, -1))
	case l.rep == storage.RepFloat && r.rep == storage.RepInt && !r.lit:
		l, r, op = r, l, swapOp[op]
	}
	ln := lane{l: l, r: r}
	switch c := r.val; {
	case !r.lit && l.rep == r.rep:
		ln.kind = colsKind[l.rep]
	case !r.lit: // int rows × float rows: cmpIntFloat, no rounding on either side
		ln.kind = laneIntFloat
	case l.rep == storage.RepStr:
		ln.kind = laneStrLit
	case l.rep == storage.RepInt && r.rep == storage.RepInt:
		ln.kind = laneIntLit
	case l.rep == storage.RepInt:
		// Int rows × float literal f: an integer threshold or one verdict.
		fl := math.Floor(c.F)
		switch {
		case c.F != c.F, c.F < -(1 << 63): // NaN sorts before every integer
			return constLane(opOK(op, 1))
		case c.F >= 1<<63:
			return constLane(opOK(op, -1))
		case fl == c.F:
		case op == algebra.EQ || op == algebra.NE: // no integer equals f
			return constLane(op == algebra.NE)
		case op == algebra.LT: // ⌊f⌋ < f < ⌊f⌋+1: `x < 2.5` is `x <= 2`
			op = algebra.LE
		case op == algebra.GE:
			op = algebra.GT
		}
		ln.kind, ln.r.val = laneIntLit, algebra.NewInt(int64(fl))
	case r.rep == storage.RepInt && -1<<53 < c.I && c.I < 1<<53: // every such c is a float64
		ln.kind, ln.r.val = laneFloatLit, algebra.NewFloat(float64(c.I))
	case r.rep == storage.RepInt:
		ln.kind = laneBigIntLit
	case c.F != c.F:
		// Compare(x, NaN) is 0 for a NaN row and 1 for any other, and a row is
		// NaN exactly when !(x >= -Inf).
		if op == algebra.GE || op == algebra.LT {
			return constLane(op == algebra.GE)
		}
		ln.kind, ln.r.val = laneFloatLit, algebra.NewFloat(math.Inf(-1))
		ln.op, ln.neg = algebra.GE, op == algebra.EQ || op == algebra.LE
		return ln
	default:
		ln.kind = laneFloatLit
	}
	ln.op, ln.neg = splitOp(op)
	return ln
}

// compileLane compiles one conjunct of the selection kernel against the
// relation's column vectors.
func compileLane(c algebra.BoundCmp, cv *storage.ColView) lane {
	side := func(idx int, val algebra.Value, a *algebra.BoundArith) operand {
		switch {
		case a != nil:
			return operand{rep: storage.RepFloat, arith: a}
		case idx < 0:
			return operand{rep: litRepOf(val), lit: true, val: val}
		}
		v := cv.Col(idx)
		return operand{rep: v.Rep, i: v.I, f: v.F, s: v.S, src: idx}
	}
	return laneOf(c.Op, side(c.LIdx, c.LVal, c.LArith), side(c.RIdx, c.RVal, c.RArith))
}

// apply folds the lane's verdicts on rows [lo, hi) into bm: fill mode (first)
// only sets bits, compose mode only clears them.
func (ln lane) apply(bm *Bitmap, first bool, cv *storage.ColView, rows []algebra.Tuple, lo, hi int) {
	if ln.kind == laneConst {
		switch {
		case ln.ok && first:
			bm.SetRange(lo, hi)
		case !ln.ok && !first:
			bm.ClearRange(lo, hi)
		}
		return
	}
	for _, o := range []*operand{&ln.l, &ln.r} {
		if o.arith != nil {
			o.f, o.off = make([]float64, hi-lo), lo
			evalArithLane(o.arith, cv, rows, lo, hi, o.f)
		}
	}
	if ln.kind == laneRows {
		applyTest(bm, first, lo, hi, func(i int) bool {
			return opOK(ln.op, ln.l.value(rows, i).Compare(ln.r.value(rows, i)))
		})
		return
	}
	bm.MergeMasks(first, lo, hi, func(i, n int) uint64 { return ln.mask(i-ln.l.off, i-ln.r.off, n) })
}

// value reads row i of the side as a Value — the laneRows arm only.
func (o *operand) value(rows []algebra.Tuple, i int) algebra.Value {
	switch {
	case o.lit:
		return o.val
	case o.arith != nil:
		return algebra.NewFloat(o.f[i-o.off])
	}
	return rows[i][o.src]
}

// applyTest routes a per-row test through the fill/compose duality: every row
// in fill mode, surviving rows only in compose mode.
func applyTest(bm *Bitmap, first bool, lo, hi int, test func(i int) bool) {
	if first {
		for i := lo; i < hi; i++ {
			if test(i) {
				bm.Set(i)
			}
		}
		return
	}
	bm.FilterRange(lo, hi, test)
}

// mask evaluates n ≤ 64 rows: bit k is the verdict on element l+k of the left
// operand against element r+k of the right (or the literal); bits from n up
// are unspecified. The selection kernel calls it a bitmap word at a time, the
// join residual one candidate pair at a time.
func (ln *lane) mask(l, r, n int) (m uint64) {
	switch ln.kind {
	case laneIntLit:
		m = maskLit(ln.l.i[l:l+n], ln.r.val.I, ln.op)
	case laneFloatLit:
		m = maskLit(ln.l.f[l:l+n], ln.r.val.F, ln.op)
	case laneStrLit:
		m = maskLit(ln.l.s[l:l+n], ln.r.val.S, ln.op)
	case laneIntInt:
		m = maskCols(ln.l.i[l:l+n], ln.r.i[r:r+n], ln.op)
	case laneStrStr:
		m = maskCols(ln.l.s[l:l+n], ln.r.s[r:r+n], ln.op)
	case laneFloatFloat:
		m = maskCols(ln.l.f[l:l+n], ln.r.f[r:r+n], ln.op)
	case laneIntFloat:
		for k := n - 1; k >= 0; k-- {
			m = m<<1 | b2u(opOK(ln.op, cmpIntFloat(ln.l.i[l+k], ln.r.f[r+k])))
		}
	case laneBigIntLit:
		for k := n - 1; k >= 0; k-- {
			m = m<<1 | b2u(opOK(ln.op, -cmpIntFloat(ln.r.val.I, ln.l.f[l+k])))
		}
	}
	if ln.neg {
		m = ^m
	}
	return m
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// maskLit is the dense rows × literal loop (op is EQ, GT or GE). Go's
// operators agree with Value.Compare on int64 and string; on float64 they are
// the IEEE ones, which lane.neg turns into Compare's NaN-first order (c is
// never NaN: laneOf coerces a NaN literal).
func maskLit[T int64 | float64 | string](xs []T, c T, op algebra.CmpOp) (m uint64) {
	switch op {
	case algebra.EQ:
		for k := len(xs) - 1; k >= 0; k-- {
			m = m<<1 | b2u(xs[k] == c)
		}
	case algebra.GT:
		for k := len(xs) - 1; k >= 0; k-- {
			m = m<<1 | b2u(xs[k] > c)
		}
	case algebra.GE:
		for k := len(xs) - 1; k >= 0; k-- {
			m = m<<1 | b2u(xs[k] >= c)
		}
	}
	return m
}

// maskCols is the dense rows × rows loop of one class. The NaN terms give
// float64 Value.Compare's order (NaN equal to NaN and below everything else);
// they are constant false on the other payloads.
func maskCols[T int64 | float64 | string](xs, ys []T, op algebra.CmpOp) (m uint64) {
	switch op {
	case algebra.EQ:
		for k := len(xs) - 1; k >= 0; k-- {
			x, y := xs[k], ys[k]
			m = m<<1 | b2u(x == y) | b2u(x != x)&b2u(y != y)
		}
	case algebra.GT:
		for k := len(xs) - 1; k >= 0; k-- {
			x, y := xs[k], ys[k]
			m = m<<1 | b2u(x > y) | b2u(x == x)&b2u(y != y)
		}
	case algebra.GE:
		for k := len(xs) - 1; k >= 0; k-- {
			x, y := xs[k], ys[k]
			m = m<<1 | b2u(x >= y) | b2u(y != y)
		}
	}
	return m
}

// cmpFloat is Value.Compare's float-vs-float arm.
func cmpFloat(a, b float64) int {
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpIntFloat is Value.Compare's int-vs-float arm: the two as exact reals, the
// integer never rounded through float64.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f, f < -(1 << 63): // NaN sorts before every other numeric
		return 1
	case f >= 1<<63:
		return -1
	}
	t := int64(f) // exact: |f| < 2^63, truncates toward zero
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	}
	return cmpFloat(math.Trunc(f), f)
}

// swapOp mirrors a comparison operator across swapped operands.
var swapOp = [...]algebra.CmpOp{algebra.EQ: algebra.EQ, algebra.NE: algebra.NE,
	algebra.LT: algebra.GT, algebra.LE: algebra.GE, algebra.GT: algebra.LT, algebra.GE: algebra.LE}

// opOK translates a three-way comparison into the operator's verdict.
func opOK(op algebra.CmpOp, cmp int) bool {
	switch op {
	case algebra.EQ:
		return cmp == 0
	case algebra.NE:
		return cmp != 0
	case algebra.LT:
		return cmp < 0
	case algebra.LE:
		return cmp <= 0
	case algebra.GT:
		return cmp > 0
	case algebra.GE:
		return cmp >= 0
	}
	return false
}

// litRepOf classifies a literal the way storage classifies column payloads.
func litRepOf(v algebra.Value) storage.ColRep {
	switch v.Kind {
	case catalog.Int, catalog.Date:
		return storage.RepInt
	case catalog.Float:
		return storage.RepFloat
	}
	return storage.RepStr
}

// evalArithLane evaluates a compiled arithmetic tree into out (out[i-lo] is
// the value for row i): column leaves stream from typed vectors where the
// column holds one payload class, literal leaves broadcast, and interior
// nodes combine lanes element-wise. Semantics are BoundArith.EvalRow's
// (AsFloat coercion, IEEE division) by construction.
func evalArithLane(a *algebra.BoundArith, cv *storage.ColView, rows []algebra.Tuple, lo, hi int, out []float64) {
	if a.Leaf() {
		if a.Idx < 0 {
			c := a.Val.AsFloat()
			for i := range out {
				out[i] = c
			}
			return
		}
		switch v := cv.Col(a.Idx); v.Rep {
		case storage.RepInt:
			xs := v.I
			for i := lo; i < hi; i++ {
				out[i-lo] = float64(xs[i])
			}
		case storage.RepFloat:
			copy(out, v.F[lo:hi])
		case storage.RepStr:
			for i := range out {
				out[i] = 0 // AsFloat: strings coerce to 0
			}
		default:
			for i := lo; i < hi; i++ {
				out[i-lo] = rows[i][a.Idx].AsFloat()
			}
		}
		return
	}
	evalArithLane(a.L, cv, rows, lo, hi, out)
	tmp := make([]float64, hi-lo)
	evalArithLane(a.R, cv, rows, lo, hi, tmp)
	switch a.Op {
	case algebra.Add:
		for i := range out {
			out[i] += tmp[i]
		}
	case algebra.Sub:
		for i := range out {
			out[i] -= tmp[i]
		}
	case algebra.Mul:
		for i := range out {
			out[i] *= tmp[i]
		}
	case algebra.Div:
		for i := range out {
			out[i] /= tmp[i]
		}
	}
}

// ---------------------------------------------------------------------------
// Two-sided residual predicates of the hash join.

// twoSide is one operand of a residual conjunct, resolved to the join input
// it reads, so evaluation never materializes the concatenated row.
type twoSide struct {
	build bool          // reads the build row of a candidate pair, else the probe row
	b     *Batch        // the input read; nil for a literal or an arithmetic side
	idx   int           // column of b
	val   algebra.Value // the literal
	arith *twoArith
	sel   []int32 // under a lane: b's selection (logical → stored row)
}

// twoArith is a compiled arithmetic tree over two-sided leaves.
type twoArith struct {
	op   algebra.ArithOp
	l, r *twoArith // nil at a leaf
	leaf twoSide
}

// twoCmp is one residual conjunct over (build, probe) row pairs. ln is its
// typed compile — the selection kernel's table, laneOf, evaluated a pair at a
// time — and nil where a side has no single stored class to read, in which
// case the pair is compared as Values.
type twoCmp struct {
	op algebra.CmpOp
	s  [2]twoSide
	ln *lane
}

// operand is the side as laneOf sees it: a literal, a single-class column of a
// relation-backed input (whose selection the side then keeps, to find stored
// rows), or (rep RepMixed) neither. k is the side's index in its twoCmp.
func (s *twoSide) operand(k int) operand {
	o := operand{src: k}
	switch {
	case s.arith != nil:
	case s.b == nil:
		o.rep, o.lit, o.val = litRepOf(s.val), true, s.val
	case s.b.rel != nil:
		v := s.b.rel.ColView().Col(s.b.srcCol(s.idx))
		o.rep, o.i, o.f, o.s, s.sel = v.Rep, v.I, v.F, v.S, s.b.sel
	}
	return o
}

// residualPred is a compiled residual predicate over (build, probe) row
// pairs: conjuncts plus disjunctive clauses, mirroring BoundPred in two-sided
// form.
type residualPred struct {
	cs      []twoCmp
	clauses [][]twoCmp
}

// compileResidual binds the residual conjuncts and clauses against the l++r
// layout and resolves each side reference to the input batch it reads.
// Semantics equal BoundPred.Eval over l++r by construction (same Bind, same
// Value.Compare or a lane reproducing it).
func compileResidual(residual []algebra.Cmp, clauses [][]algebra.Cmp, outSchema algebra.Schema, lWidth int, build, probe *Batch, buildIsLeft bool) *residualPred {
	if len(residual) == 0 && len(clauses) == 0 {
		return nil
	}
	bp := algebra.Pred{Conjuncts: residual, Clauses: clauses}.Bind(outSchema)
	side := func(idx int, val algebra.Value) twoSide {
		if idx < 0 {
			return twoSide{val: val}
		}
		fromLeft := idx < lWidth
		if !fromLeft {
			idx -= lWidth
		}
		if fromLeft == buildIsLeft {
			return twoSide{build: true, b: build, idx: idx}
		}
		return twoSide{b: probe, idx: idx}
	}
	var arith func(a *algebra.BoundArith) *twoArith
	arith = func(a *algebra.BoundArith) *twoArith {
		switch {
		case a == nil:
			return nil
		case a.Leaf():
			return &twoArith{leaf: side(a.Idx, a.Val)}
		}
		return &twoArith{op: a.Op, l: arith(a.L), r: arith(a.R)}
	}
	compile := func(cs []algebra.BoundCmp) []twoCmp {
		out := make([]twoCmp, len(cs))
		for i, c := range cs {
			tc := &out[i]
			tc.op = c.Op
			tc.s[0], tc.s[1] = side(c.LIdx, c.LVal), side(c.RIdx, c.RVal)
			tc.s[0].arith, tc.s[1].arith = arith(c.LArith), arith(c.RArith)
			if ln := laneOf(c.Op, tc.s[0].operand(0), tc.s[1].operand(1)); ln.kind != laneRows {
				tc.ln = &ln
			}
		}
		return out
	}
	rp := &residualPred{cs: compile(bp.Cmps())}
	for _, cl := range bp.Clauses() {
		rp.clauses = append(rp.clauses, compile(cl))
	}
	return rp
}
