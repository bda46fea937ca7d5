package exec

// FuzzPredicateLanes drives the predicate compile (batch.go: laneOf and the
// loops behind it) from arbitrary bytes: a column of fuzzed payload bits
// under a fuzzed kind tag, compared by a fuzzed operator with a fuzzed
// literal, column or arithmetic lane, must select exactly the rows the
// row-at-a-time reference (algebra's BoundPred.Eval over Value.Compare)
// selects — in fill mode, in compose mode and inside a clause, sequentially
// and over four ranges (checkLanes).

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/algebra"
)

// fuzzLaneValue reads 64 payload bits under a kind tag: 0 Int, 1 Date,
// 2 Float, 3 String, anything else the kind the bits themselves pick (so a
// column under such a tag is RepMixed).
func fuzzLaneValue(tag uint8, bits uint64) algebra.Value {
	switch tag {
	case 0:
		return algebra.NewInt(int64(bits))
	case 1:
		return algebra.NewDate(int64(bits))
	case 2:
		return algebra.NewFloat(math.Float64frombits(bits))
	case 3:
		return algebra.NewString(laneStrs[bits%uint64(len(laneStrs))])
	}
	return fuzzLaneValue(uint8(bits>>61)%4, bits)
}

func FuzzPredicateLanes(f *testing.F) {
	payload := func(words ...uint64) []byte {
		var out []byte
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		return out
	}
	var ints, floats []uint64
	for _, c := range laneInts {
		ints = append(ints, uint64(c))
	}
	for _, c := range laneFloats {
		floats = append(floats, math.Float64bits(c))
	}
	// Every boundary literal against boundary columns of the other numeric
	// class, under each right-hand shape.
	for rhs := uint8(0); rhs < 8; rhs++ {
		for op := uint8(0); op < 6; op++ {
			f.Add(payload(floats...), uint64(1<<53+1), uint8(2), rhs, op)
			f.Add(payload(ints...), math.Float64bits(2.5), uint8(0), rhs, op)
		}
	}
	for _, c := range laneInts {
		f.Add(payload(floats...), uint64(c), uint8(2), uint8(0), uint8(2))
	}
	for _, c := range laneFloats {
		f.Add(payload(ints...), math.Float64bits(c), uint8(1), uint8(2), uint8(3))
		f.Add(payload(floats...), math.Float64bits(c), uint8(2), uint8(2), uint8(0))
	}
	f.Add(payload(append(ints, floats...)...), uint64(6), uint8(7), uint8(0), uint8(2)) // mixed column
	f.Add([]byte{}, uint64(0), uint8(0), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, lit uint64, colTag, rhs, op uint8) {
		n := len(data) / 8
		if n > 400 {
			n = 400
		}
		rows := make([]algebra.Tuple, n)
		for i := range rows {
			bits := binary.LittleEndian.Uint64(data[8*i:])
			// The right-hand columns scramble the payload with the literal, so
			// they stay boundary-heavy when the corpus is.
			other := binary.LittleEndian.Uint64(data[8*((i*7+3)%n):]) ^ lit<<1
			rows[i] = algebra.Tuple{fuzzLaneValue(colTag%5, bits), algebra.NewInt(int64(bits>>3) % 5),
				fuzzLaneValue(0, other), fuzzLaneValue(2, other), fuzzLaneValue(3, other)}
		}
		var r algebra.Expr
		switch rhs % 8 {
		case 0, 1, 2, 3:
			r = algebra.Const{Val: fuzzLaneValue(rhs%8, lit)}
		case 4:
			r = algebra.C("t.ri")
		case 5:
			r = algebra.C("t.rf")
		case 6:
			r = algebra.C("t.rs")
		case 7:
			ops := []algebra.ArithOp{algebra.Add, algebra.Sub, algebra.Mul, algebra.Div}
			r = algebra.Arith{Op: ops[lit%4], L: algebra.C("t.rf"), R: algebra.C("t.ri")}
		}
		checkLanes(t, laneRel(rows), algebra.Cmp{Op: allCmpOps[op%6], L: algebra.C("t.a"), R: r})
	})
}
