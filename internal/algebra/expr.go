package algebra

import (
	"fmt"
	"sort"
	"strings"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp int

const (
	// EQ is equality.
	EQ CmpOp = iota
	// NE is inequality.
	NE
	// LT is strictly-less-than.
	LT
	// LE is less-or-equal.
	LE
	// GT is strictly-greater-than.
	GT
	// GE is greater-or-equal.
	GE
)

// String renders the comparison operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Flip returns the operator with sides exchanged (a < b  ≡  b > a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return op
	}
}

// Expr is a scalar expression evaluated per tuple. Implementations are
// immutable once built; String() is a canonical rendering used for hashing
// and DAG unification.
type Expr interface {
	String() string
	// Columns appends the qualified names of all columns referenced.
	Columns(dst []string) []string
	// Eval evaluates the expression against a tuple laid out by schema.
	Eval(s Schema, t Tuple) Value
}

// ColRef references a column by qualified name.
type ColRef struct {
	Rel  string
	Name string
}

// C is shorthand for building a ColRef from "rel.name".
func C(qname string) ColRef {
	i := strings.IndexByte(qname, '.')
	if i < 0 {
		return ColRef{Name: qname}
	}
	return ColRef{Rel: qname[:i], Name: qname[i+1:]}
}

// QName returns the qualified name of the referenced column.
func (c ColRef) QName() string {
	if c.Rel == "" {
		return c.Name
	}
	return c.Rel + "." + c.Name
}

// String renders the reference.
func (c ColRef) String() string { return c.QName() }

// Columns appends this column.
func (c ColRef) Columns(dst []string) []string { return append(dst, c.QName()) }

// Eval looks the column up in the tuple.
func (c ColRef) Eval(s Schema, t Tuple) Value {
	i := s.IndexOf(c.QName())
	if i < 0 {
		panic(fmt.Sprintf("algebra: column %s not in schema %s", c.QName(), s))
	}
	return t[i]
}

// Const is a literal value.
type Const struct{ Val Value }

// String renders the literal.
func (c Const) String() string { return c.Val.String() }

// Columns references nothing.
func (c Const) Columns(dst []string) []string { return dst }

// Eval returns the literal.
func (c Const) Eval(Schema, Tuple) Value { return c.Val }

// Cmp is a binary comparison. Predicates in this system are in conjunctive
// normal form: plain comparisons (the common case — the paper's workloads are
// conjunctive select-project-join-aggregate views) plus optional disjunctive
// clauses (Pred.Clauses) for OR-of-comparisons.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eq builds an equality comparison between two columns.
func Eq(l, r string) Cmp { return Cmp{Op: EQ, L: C(l), R: C(r)} }

// CmpConst builds a comparison between a column and a literal.
func CmpConst(col string, op CmpOp, v Value) Cmp {
	return Cmp{Op: op, L: C(col), R: Const{Val: v}}
}

// String renders the comparison canonically: for commutative forms the
// lexically smaller operand is placed on the left, so that a=b and b=a hash
// identically.
func (c Cmp) String() string {
	l, r, op := c.L.String(), c.R.String(), c.Op
	if _, isConst := c.L.(Const); isConst {
		// Keep constants on the right: 5 > x  →  x < 5.
		l, r, op = r, l, op.Flip()
	} else if op == EQ || op == NE {
		if _, rConst := c.R.(Const); !rConst && r < l {
			l, r = r, l
		}
	}
	return l + op.String() + r
}

// Columns appends columns from both sides.
func (c Cmp) Columns(dst []string) []string {
	return c.R.Columns(c.L.Columns(dst))
}

// Eval evaluates the comparison to a boolean (Int 0/1).
func (c Cmp) Eval(s Schema, t Tuple) Value {
	cmp := c.L.Eval(s, t).Compare(c.R.Eval(s, t))
	var ok bool
	switch c.Op {
	case EQ:
		ok = cmp == 0
	case NE:
		ok = cmp != 0
	case LT:
		ok = cmp < 0
	case LE:
		ok = cmp <= 0
	case GT:
		ok = cmp > 0
	case GE:
		ok = cmp >= 0
	}
	if ok {
		return NewInt(1)
	}
	return NewInt(0)
}

// Pred is a predicate in conjunctive normal form: every Conjunct must hold
// AND every Clause (a disjunction of comparisons) must have at least one true
// alternative. The empty predicate is TRUE; an empty clause is FALSE.
type Pred struct {
	Conjuncts []Cmp
	// Clauses are disjunctions ANDed with the conjuncts. Single-alternative
	// clauses belong in Conjuncts (the canonical form the planners key on);
	// only genuine OR-of-comparisons go here.
	Clauses [][]Cmp
}

// And builds a conjunction.
func And(cs ...Cmp) Pred { return Pred{Conjuncts: cs} }

// Or builds a predicate with one disjunctive clause.
func Or(cs ...Cmp) Pred { return Pred{Clauses: [][]Cmp{cs}} }

// TruePred is the empty (always-true) predicate.
func TruePred() Pred { return Pred{} }

// IsTrue reports whether the predicate is empty.
func (p Pred) IsTrue() bool { return len(p.Conjuncts) == 0 && len(p.Clauses) == 0 }

// HasClauses reports whether the predicate carries disjunctive clauses —
// consumers that only understand conjunctions (index-key extraction, shard
// lowering, subsumption implication tests) must check this and either handle
// or conservatively reject the predicate.
func (p Pred) HasClauses() bool { return len(p.Clauses) > 0 }

// String renders the predicate canonically with conjuncts and clauses sorted,
// so that predicate sets compare and hash independently of construction
// order. A conjunction-only predicate renders exactly as before clauses
// existed (DAG unification keys are derived from this rendering).
func (p Pred) String() string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, 0, len(p.Conjuncts)+len(p.Clauses))
	for _, c := range p.Conjuncts {
		parts = append(parts, c.String())
	}
	for _, cl := range p.Clauses {
		alts := make([]string, len(cl))
		for i, c := range cl {
			alts[i] = c.String()
		}
		sort.Strings(alts)
		parts = append(parts, "("+strings.Join(alts, " OR ")+")")
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// Columns appends all referenced columns.
func (p Pred) Columns(dst []string) []string {
	for _, c := range p.Conjuncts {
		dst = c.Columns(dst)
	}
	for _, cl := range p.Clauses {
		for _, c := range cl {
			dst = c.Columns(dst)
		}
	}
	return dst
}

// Eval evaluates the predicate against a tuple.
func (p Pred) Eval(s Schema, t Tuple) bool {
	for _, c := range p.Conjuncts {
		if c.Eval(s, t).I == 0 {
			return false
		}
	}
	for _, cl := range p.Clauses {
		any := false
		for _, c := range cl {
			if c.Eval(s, t).I != 0 {
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

// RefersOnlyTo reports whether every column the predicate references is
// present in the schema. Used for predicate pushdown during DAG expansion.
func (p Pred) RefersOnlyTo(s Schema) bool {
	for _, q := range p.Columns(nil) {
		if !s.Has(q) {
			return false
		}
	}
	return true
}

// AndPred conjoins two predicates, concatenating conjuncts and clauses.
func AndPred(a, b Pred) Pred {
	if a.IsTrue() {
		return b
	}
	if b.IsTrue() {
		return a
	}
	out := make([]Cmp, 0, len(a.Conjuncts)+len(b.Conjuncts))
	out = append(out, a.Conjuncts...)
	out = append(out, b.Conjuncts...)
	var cls [][]Cmp
	if len(a.Clauses)+len(b.Clauses) > 0 {
		cls = make([][]Cmp, 0, len(a.Clauses)+len(b.Clauses))
		cls = append(cls, a.Clauses...)
		cls = append(cls, b.Clauses...)
	}
	return Pred{Conjuncts: out, Clauses: cls}
}
