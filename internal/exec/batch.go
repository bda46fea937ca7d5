package exec

// Vectorized predicate kernels the chained operators (pipeline.go) are built
// on: selection over typed column vectors into a Bitmap, and the two-sided
// residual compile of join predicates.
//
// Selection runs over typed column vectors (storage.ColView) into a selection
// Bitmap whose bit order is row order, so survivors come out in row order;
// every comparison reproduces algebra.Value.Compare exactly (NaN as a
// singleton class before every numeric, -0.0 equal to 0.0, numerics before
// strings), which is what keeps the engine byte-identical to the row oracle
// of internal/exec/equivtest.

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

// ---------------------------------------------------------------------------
// Selection: predicate → selection bitmap over column vectors.

// selBitmapCmps evaluates a compiled CNF predicate (conjuncts + clauses whose
// indexes refer to the relation's own layout — chainFilter remaps a
// batch-schema compile through the batch's projection) into a selection
// bitmap. The first conjunct fills the bitmap with a dense typed loop; later
// conjuncts compose by clearing set bits (selection-vector composition).
// Disjunctive clauses evaluate in one vectorized pass each: every alternative
// runs its dense fill loop into a shared scratch bitmap — fill mode only ever
// sets bits, so alternatives OR together for free — and the clause verdict is
// ANDed into the main bitmap word-wise. No clause ever falls back to
// per-surviving-row predicate evaluation. Large inputs evaluate
// morsel-parallel over word-aligned row ranges, so no two workers touch a
// bitmap word (the scratch bitmap is word-disjoint between workers too).
func selBitmapCmps(in *storage.Relation, cmps []algebra.BoundCmp, clauses [][]algebra.BoundCmp, par storage.Par) *Bitmap {
	n := in.Len()
	bm := NewBitmap(n)
	if len(cmps) == 0 && len(clauses) == 0 {
		bm.SetAll()
		return bm
	}
	cv := in.ColView()
	rows := in.Rows()
	var scratch *Bitmap
	if len(clauses) > 0 {
		scratch = NewBitmap(n)
	}
	eval := func(lo, hi int) {
		for ci := range cmps {
			applyCmpRange(bm, ci == 0, cmps[ci], cv, rows, lo, hi)
		}
		filled := len(cmps) > 0
		for _, cl := range clauses {
			scratch.ZeroWords(lo, hi)
			for _, c := range cl {
				// Fill mode for every alternative: set-only writes compose
				// the disjunction in the scratch bitmap.
				applyCmpRange(scratch, true, c, cv, rows, lo, hi)
			}
			if filled {
				bm.AndWords(scratch, lo, hi)
			} else {
				bm.CopyWords(scratch, lo, hi)
				filled = true
			}
		}
	}
	par = par.Norm()
	if !par.Enabled() || n < storage.ParMinRows {
		eval(0, n)
		return bm
	}
	ranges := wordAlignedRanges(n, par.Partitions)
	forRanges(ranges, par.Workers, func(_, lo, hi int) { eval(lo, hi) })
	return bm
}

// wordAlignedRanges splits [0, n) into up to parts contiguous ranges whose
// boundaries (except the final n) are multiples of 64, so concurrent workers
// never share a bitmap word.
func wordAlignedRanges(n, parts int) [][2]int {
	words := (n + 63) >> 6
	wr := storage.MorselRanges(words, parts)
	out := make([][2]int, len(wr))
	for i, r := range wr {
		lo, hi := r[0]<<6, r[1]<<6
		if hi > n {
			hi = n
		}
		out[i] = [2]int{lo, hi}
	}
	return out
}

// applyCmpRange applies one compiled conjunct over rows [lo, hi): dense
// typed loops when both sides resolve to one payload class, a row-at-a-time
// fallback (same Value.Compare semantics) otherwise.
func applyCmpRange(bm *Bitmap, first bool, c algebra.BoundCmp, cv *storage.ColView, rows []algebra.Tuple, lo, hi int) {
	if c.LArith != nil || c.RArith != nil {
		applyArithCmpRange(bm, first, c, cv, rows, lo, hi)
		return
	}
	op := c.Op
	// Normalize literal-vs-column to column-vs-literal by swapping the
	// comparison direction.
	if c.LIdx < 0 && c.RIdx >= 0 {
		c.LIdx, c.RIdx = c.RIdx, -1
		c.LVal, c.RVal = c.RVal, c.LVal
		op = swapOp(op)
	}
	switch {
	case c.LIdx < 0 && c.RIdx < 0:
		applyConst(bm, first, lo, hi, opOK(op, c.LVal.Compare(c.RVal)))
	case c.RIdx < 0:
		applyColConst(bm, first, op, cv.Col(c.LIdx), c.RVal, rows, c.LIdx, lo, hi)
	default:
		applyColCol(bm, first, op, cv.Col(c.LIdx), cv.Col(c.RIdx), rows, c, lo, hi)
	}
}

// swapOp mirrors a comparison operator across swapped operands.
func swapOp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.LT:
		return algebra.GT
	case algebra.LE:
		return algebra.GE
	case algebra.GT:
		return algebra.LT
	case algebra.GE:
		return algebra.LE
	}
	return op
}

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

// applyConst folds a constant conjunct verdict into the bitmap.
func applyConst(bm *Bitmap, first bool, lo, hi int, ok bool) {
	switch {
	case ok && first:
		bm.SetRange(lo, hi)
	case !ok && !first:
		bm.ClearRange(lo, hi)
	}
}

// applyColConst applies column-op-literal. The common same-class cases run
// dense typed loops; numeric cross-class goes value-at-a-time on the vector;
// class-ordered cases (numeric vs string) collapse to a constant verdict.
func applyColConst(bm *Bitmap, first bool, op algebra.CmpOp, v *storage.ColVec, lit algebra.Value, rows []algebra.Tuple, col int, lo, hi int) {
	litRep := litRepOf(lit)
	switch {
	case v.Rep == storage.RepInt && litRep == storage.RepInt:
		denseConstOrd(bm, first, v.I, lit.I, op, lo, hi)
	case v.Rep == storage.RepFloat && litRep == storage.RepFloat:
		denseConstFloat(bm, first, v.F, lit.F, op, lo, hi)
	case v.Rep == storage.RepStr && litRep == storage.RepStr:
		denseConstOrd(bm, first, v.S, lit.S, op, lo, hi)
	case v.Rep == storage.RepInt && litRep == storage.RepFloat:
		// Exact int-vs-float comparison through Value.Compare, reading the
		// column vector (no tuple loads).
		xs := v.I
		test := func(i int) bool { return opOK(op, algebra.NewInt(xs[i]).Compare(lit)) }
		applyTest(bm, first, lo, hi, test)
	case v.Rep == storage.RepFloat && litRep == storage.RepInt:
		xs := v.F
		test := func(i int) bool { return opOK(op, algebra.NewFloat(xs[i]).Compare(lit)) }
		applyTest(bm, first, lo, hi, test)
	case v.Rep == storage.RepInt && litRep == storage.RepStr,
		v.Rep == storage.RepFloat && litRep == storage.RepStr:
		// Every numeric orders before every string: cmp is -1 for all rows.
		applyConst(bm, first, lo, hi, opOK(op, -1))
	case v.Rep == storage.RepStr && litRep != storage.RepStr:
		applyConst(bm, first, lo, hi, opOK(op, 1))
	default:
		// Mixed-class column: evaluate through the rows.
		test := func(i int) bool { return opOK(op, rows[i][col].Compare(lit)) }
		applyTest(bm, first, lo, hi, test)
	}
}

// applyColCol applies column-op-column; same-class pairs run dense loops.
func applyColCol(bm *Bitmap, first bool, op algebra.CmpOp, l, r *storage.ColVec, rows []algebra.Tuple, c algebra.BoundCmp, lo, hi int) {
	switch {
	case l.Rep == storage.RepInt && r.Rep == storage.RepInt:
		denseColsOrd(bm, first, l.I, r.I, op, lo, hi)
	case l.Rep == storage.RepFloat && r.Rep == storage.RepFloat:
		xs, ys := l.F, r.F
		test := func(i int) bool { return opOK(op, cmpFloat(xs[i], ys[i])) }
		applyTest(bm, first, lo, hi, test)
	case l.Rep == storage.RepStr && r.Rep == storage.RepStr:
		denseColsOrd(bm, first, l.S, r.S, op, lo, hi)
	default:
		li, ri := c.LIdx, c.RIdx
		test := func(i int) bool { return opOK(op, rows[i][li].Compare(rows[i][ri])) }
		applyTest(bm, first, lo, hi, test)
	}
}

// applyTest routes a per-row test through the fill/compose duality.
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

// applyArithCmpRange applies a conjunct with at least one arithmetic side
// over [lo, hi): each arithmetic side evaluates into a dense float64 lane
// (typed vectors feed the lane with no tuple loads — the columnar compile of
// arithmetic predicates), and the comparison reproduces Value.Compare. An
// arithmetic result is a Float, so float-vs-float pairs run the dense
// NaN-class compare and mixed pairs go through Value.Compare with the exact
// row value (kind preserved).
func applyArithCmpRange(bm *Bitmap, first bool, c algebra.BoundCmp, cv *storage.ColView, rows []algebra.Tuple, lo, hi int) {
	op := c.Op
	if c.LArith == nil {
		// Normalize arithmetic to the left, swapping the comparison
		// direction (Value.Compare is antisymmetric).
		c.LArith, c.RArith = c.RArith, nil
		c.LIdx, c.RIdx = c.RIdx, c.LIdx
		c.LVal, c.RVal = c.RVal, c.LVal
		op = swapOp(op)
	}
	xs := make([]float64, hi-lo)
	evalArithLane(c.LArith, cv, rows, lo, hi, xs)
	switch {
	case c.RArith != nil:
		ys := make([]float64, hi-lo)
		evalArithLane(c.RArith, cv, rows, lo, hi, ys)
		applyTest(bm, first, lo, hi, func(i int) bool { return opOK(op, cmpFloat(xs[i-lo], ys[i-lo])) })
	case c.RIdx < 0:
		lit := c.RVal
		if litRepOf(lit) == storage.RepFloat {
			applyTest(bm, first, lo, hi, func(i int) bool { return opOK(op, cmpFloat(xs[i-lo], lit.F)) })
			return
		}
		applyTest(bm, first, lo, hi, func(i int) bool { return opOK(op, algebra.NewFloat(xs[i-lo]).Compare(lit)) })
	default:
		col := c.RIdx
		if v := cv.Col(col); v.Rep == storage.RepFloat {
			ys := v.F
			applyTest(bm, first, lo, hi, func(i int) bool { return opOK(op, cmpFloat(xs[i-lo], ys[i])) })
			return
		}
		applyTest(bm, first, lo, hi, func(i int) bool { return opOK(op, algebra.NewFloat(xs[i-lo]).Compare(rows[i][col])) })
	}
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

// denseConstOrd is the dense column-vs-literal loop for totally ordered
// payloads (int64, string — where Go's operators agree with Value.Compare).
func denseConstOrd[T int64 | string](bm *Bitmap, first bool, xs []T, c T, op algebra.CmpOp, lo, hi int) {
	if first {
		switch op {
		case algebra.EQ:
			for i := lo; i < hi; i++ {
				if xs[i] == c {
					bm.Set(i)
				}
			}
		case algebra.NE:
			for i := lo; i < hi; i++ {
				if xs[i] != c {
					bm.Set(i)
				}
			}
		case algebra.LT:
			for i := lo; i < hi; i++ {
				if xs[i] < c {
					bm.Set(i)
				}
			}
		case algebra.LE:
			for i := lo; i < hi; i++ {
				if xs[i] <= c {
					bm.Set(i)
				}
			}
		case algebra.GT:
			for i := lo; i < hi; i++ {
				if xs[i] > c {
					bm.Set(i)
				}
			}
		case algebra.GE:
			for i := lo; i < hi; i++ {
				if xs[i] >= c {
					bm.Set(i)
				}
			}
		}
		return
	}
	switch op {
	case algebra.EQ:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] == c })
	case algebra.NE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] != c })
	case algebra.LT:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] < c })
	case algebra.LE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] <= c })
	case algebra.GT:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] > c })
	case algebra.GE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] >= c })
	}
}

// denseColsOrd is the dense column-vs-column loop for ordered payloads.
func denseColsOrd[T int64 | string](bm *Bitmap, first bool, xs, ys []T, op algebra.CmpOp, lo, hi int) {
	if first {
		switch op {
		case algebra.EQ:
			for i := lo; i < hi; i++ {
				if xs[i] == ys[i] {
					bm.Set(i)
				}
			}
		case algebra.NE:
			for i := lo; i < hi; i++ {
				if xs[i] != ys[i] {
					bm.Set(i)
				}
			}
		case algebra.LT:
			for i := lo; i < hi; i++ {
				if xs[i] < ys[i] {
					bm.Set(i)
				}
			}
		case algebra.LE:
			for i := lo; i < hi; i++ {
				if xs[i] <= ys[i] {
					bm.Set(i)
				}
			}
		case algebra.GT:
			for i := lo; i < hi; i++ {
				if xs[i] > ys[i] {
					bm.Set(i)
				}
			}
		case algebra.GE:
			for i := lo; i < hi; i++ {
				if xs[i] >= ys[i] {
					bm.Set(i)
				}
			}
		}
		return
	}
	switch op {
	case algebra.EQ:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] == ys[i] })
	case algebra.NE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] != ys[i] })
	case algebra.LT:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] < ys[i] })
	case algebra.LE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] <= ys[i] })
	case algebra.GT:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] > ys[i] })
	case algebra.GE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] >= ys[i] })
	}
}

// denseConstFloat is the dense float column-vs-literal loop, reproducing
// Value.Compare's NaN order (NaN is a singleton class BEFORE every other
// numeric, so e.g. NaN < c holds for every non-NaN c even though the IEEE
// comparison is false).
func denseConstFloat(bm *Bitmap, first bool, xs []float64, c float64, op algebra.CmpOp, lo, hi int) {
	if c != c { // NaN literal
		switch op {
		case algebra.EQ, algebra.LE:
			applyTest(bm, first, lo, hi, func(i int) bool { return xs[i] != xs[i] })
		case algebra.NE, algebra.GT:
			applyTest(bm, first, lo, hi, func(i int) bool { return xs[i] == xs[i] })
		case algebra.GE:
			applyConst(bm, first, lo, hi, true)
		case algebra.LT:
			applyConst(bm, first, lo, hi, false)
		}
		return
	}
	if first {
		switch op {
		case algebra.EQ:
			for i := lo; i < hi; i++ {
				if xs[i] == c {
					bm.Set(i)
				}
			}
		case algebra.NE:
			for i := lo; i < hi; i++ {
				if xs[i] != c { // NaN != c: true, matching the class order
					bm.Set(i)
				}
			}
		case algebra.LT:
			for i := lo; i < hi; i++ {
				if x := xs[i]; x < c || x != x {
					bm.Set(i)
				}
			}
		case algebra.LE:
			for i := lo; i < hi; i++ {
				if x := xs[i]; x <= c || x != x {
					bm.Set(i)
				}
			}
		case algebra.GT:
			for i := lo; i < hi; i++ {
				if xs[i] > c { // NaN > c: false, matching the class order
					bm.Set(i)
				}
			}
		case algebra.GE:
			for i := lo; i < hi; i++ {
				if xs[i] >= c {
					bm.Set(i)
				}
			}
		}
		return
	}
	switch op {
	case algebra.EQ:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] == c })
	case algebra.NE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] != c })
	case algebra.LT:
		bm.FilterRange(lo, hi, func(i int) bool { x := xs[i]; return x < c || x != x })
	case algebra.LE:
		bm.FilterRange(lo, hi, func(i int) bool { x := xs[i]; return x <= c || x != x })
	case algebra.GT:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] > c })
	case algebra.GE:
		bm.FilterRange(lo, hi, func(i int) bool { return xs[i] >= c })
	}
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

// ---------------------------------------------------------------------------
// Two-sided residual predicates of the hash join.

// twoCmp is one residual conjunct re-expressed over (build, probe) tuple
// pairs instead of the concatenated row.
type twoCmp struct {
	op             algebra.CmpOp
	lBuild, rBuild bool
	li, ri         int // tuple index, -1 for literal
	lv, rv         algebra.Value
	la, ra         *twoArith
}

// twoArith is a compiled arithmetic tree whose column leaves are already
// resolved to a (side, index) pair, so residual arithmetic never touches a
// concatenated row either.
type twoArith struct {
	op    algebra.ArithOp
	l, r  *twoArith
	build bool
	idx   int // -1 for a literal leaf
	val   algebra.Value
}

// compileTwoArith resolves every column leaf of a compiled arithmetic tree
// through the join's side function.
func compileTwoArith(a *algebra.BoundArith, side func(int) (bool, int)) *twoArith {
	if a == nil {
		return nil
	}
	if a.Leaf() {
		if a.Idx < 0 {
			return &twoArith{idx: -1, val: a.Val}
		}
		b, i := side(a.Idx)
		return &twoArith{build: b, idx: i}
	}
	return &twoArith{op: a.Op, l: compileTwoArith(a.L, side), r: compileTwoArith(a.R, side), idx: -1}
}

// residualPred is a compiled residual predicate over (build, probe) tuple
// pairs: conjuncts plus disjunctive clauses, mirroring BoundPred in two-sided
// form.
type residualPred struct {
	cs      []twoCmp
	clauses [][]twoCmp
}

// compileResidual binds the residual conjuncts and clauses against the l++r
// layout and splits each side reference to its source tuple, so evaluation
// never materializes the concatenated row. Semantics equal BoundPred.Eval
// over l++r by construction (same Bind, same Value.Compare).
func compileResidual(residual []algebra.Cmp, clauses [][]algebra.Cmp, outSchema algebra.Schema, lWidth int, buildIsLeft bool) *residualPred {
	if len(residual) == 0 && len(clauses) == 0 {
		return nil
	}
	bp := algebra.Pred{Conjuncts: residual, Clauses: clauses}.Bind(outSchema)
	side := func(idx int) (bool, int) {
		if idx < 0 {
			return false, -1
		}
		fromLeft := idx < lWidth
		if !fromLeft {
			idx -= lWidth
		}
		return fromLeft == buildIsLeft, idx
	}
	compile := func(cs []algebra.BoundCmp) []twoCmp {
		out := make([]twoCmp, len(cs))
		for i, c := range cs {
			tc := twoCmp{op: c.Op, lv: c.LVal, rv: c.RVal}
			tc.lBuild, tc.li = side(c.LIdx)
			tc.rBuild, tc.ri = side(c.RIdx)
			tc.la = compileTwoArith(c.LArith, side)
			tc.ra = compileTwoArith(c.RArith, side)
			out[i] = tc
		}
		return out
	}
	rp := &residualPred{cs: compile(bp.Cmps())}
	for _, cl := range bp.Clauses() {
		rp.clauses = append(rp.clauses, compile(cl))
	}
	return rp
}
