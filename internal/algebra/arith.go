package algebra

// Arithmetic scalar expressions: +, -, *, / over columns, literals and
// nested arithmetic. Arithmetic always evaluates in float64 (AsFloat
// semantics: strings coerce to 0, division follows IEEE-754 — x/0 is ±Inf,
// 0/0 is NaN), and an arithmetic expression's value is a Float. Both
// row-at-a-time evaluation (via Eval / boundCmp) and the columnar kernels (via
// BoundArith trees compiled into dense float lanes) evaluate exactly this
// function, so arithmetic predicates stay byte-identical between the two by
// construction.

// ArithOp is an arithmetic operator.
type ArithOp byte

const (
	// Add is addition.
	Add ArithOp = '+'
	// Sub is subtraction.
	Sub ArithOp = '-'
	// Mul is multiplication.
	Mul ArithOp = '*'
	// Div is IEEE-754 float division.
	Div ArithOp = '/'
)

// Arith is a binary arithmetic expression over two scalar operands.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// A builds an arithmetic expression; operands may be ColRef, Const or
// nested Arith.
func A(l Expr, op ArithOp, r Expr) Arith { return Arith{Op: op, L: l, R: r} }

// String renders the expression fully parenthesized, so the canonical
// predicate rendering (DAG unification keys) is unambiguous.
func (a Arith) String() string {
	return "(" + a.L.String() + string(a.Op) + a.R.String() + ")"
}

// Columns appends columns from both operands.
func (a Arith) Columns(dst []string) []string {
	return a.R.Columns(a.L.Columns(dst))
}

// Eval evaluates the expression to a Float value.
func (a Arith) Eval(s Schema, t Tuple) Value {
	return NewFloat(arithApply(a.Op, a.L.Eval(s, t).AsFloat(), a.R.Eval(s, t).AsFloat()))
}

// arithApply is the single evaluation rule shared by every engine.
func arithApply(op ArithOp, l, r float64) float64 {
	switch op {
	case Add:
		return l + r
	case Sub:
		return l - r
	case Mul:
		return l * r
	case Div:
		return l / r
	}
	panic("algebra: unknown arithmetic operator " + string(op))
}

// BoundArith is an arithmetic expression compiled against one schema: a
// binary tree whose leaves are resolved tuple indexes (Idx >= 0) or
// literals (Idx < 0, Val set). A node is a leaf iff both children are nil.
// The exec layer walks these trees to build dense float64 lanes; EvalRow is
// the row-at-a-time reference shared by BoundPred.Eval.
type BoundArith struct {
	Op   ArithOp
	L, R *BoundArith
	Idx  int
	Val  Value
}

// Leaf reports whether the node is a resolved leaf.
func (a *BoundArith) Leaf() bool { return a.L == nil && a.R == nil }

// EvalRow evaluates the compiled expression against a tuple.
func (a *BoundArith) EvalRow(t Tuple) float64 {
	if a.Leaf() {
		if a.Idx >= 0 {
			return t[a.Idx].AsFloat()
		}
		return a.Val.AsFloat()
	}
	return arithApply(a.Op, a.L.EvalRow(t), a.R.EvalRow(t))
}

// Remap returns a copy of the tree with every leaf column index rewritten
// through f (literal leaves are shared). The chained pipeline uses it to
// re-express a batch-schema compile against the backing relation's layout.
func (a *BoundArith) Remap(f func(int) int) *BoundArith {
	if a == nil {
		return nil
	}
	if a.Leaf() {
		if a.Idx < 0 {
			return a
		}
		return &BoundArith{Idx: f(a.Idx), Val: a.Val}
	}
	return &BoundArith{Op: a.Op, L: a.L.Remap(f), R: a.R.Remap(f), Idx: a.Idx}
}

// compileArithOperand compiles one side of a comparison that contains
// arithmetic, resolving column references against the schema.
func compileArithOperand(e Expr, s Schema) *BoundArith {
	switch v := e.(type) {
	case ColRef:
		i := s.IndexOf(v.QName())
		if i < 0 {
			panic("algebra: column " + v.QName() + " not in schema " + s.String())
		}
		return &BoundArith{Idx: i}
	case Const:
		return &BoundArith{Idx: -1, Val: v.Val}
	case Arith:
		return &BoundArith{Op: v.Op, L: compileArithOperand(v.L, s), R: compileArithOperand(v.R, s)}
	}
	panic("algebra: cannot bind arithmetic operand")
}

// exprHasArith reports whether an expression tree contains arithmetic.
func exprHasArith(e Expr) bool {
	_, ok := e.(Arith)
	return ok
}

// HasArith reports whether the predicate contains arithmetic expressions —
// consumers restricted to simple column/literal comparisons (the shard wire
// format, index-key extraction) must check this and conservatively reject,
// exactly as with HasClauses.
func (p Pred) HasArith() bool {
	for _, c := range p.Conjuncts {
		if exprHasArith(c.L) || exprHasArith(c.R) {
			return true
		}
	}
	for _, cl := range p.Clauses {
		for _, c := range cl {
			if exprHasArith(c.L) || exprHasArith(c.R) {
				return true
			}
		}
	}
	return false
}

// HasArith reports whether the bound predicate carries compiled arithmetic.
func (p BoundPred) HasArith() bool {
	for _, c := range p.cs {
		if c.la != nil || c.ra != nil {
			return true
		}
	}
	for _, cl := range p.clauses {
		for _, c := range cl {
			if c.la != nil || c.ra != nil {
				return true
			}
		}
	}
	return false
}
