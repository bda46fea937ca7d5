package storage

// FuzzBatchFromPartView drives the operator engine's storage substrate — the
// whole-tuple hash column and the columnar view — from arbitrary bytes: a
// fuzzed relation (random arity, mixed and uniform columns, IEEE specials) is
// hashed, columnized, extended by an insert-merge and compacted by a
// delete-merge (copy-on-write and in place, against SubtractAll's rows), and
// after every step the carried views must agree element-wise with views
// rebuilt from scratch over the surviving rows. This is the
// invariant the vectorized operators rely on for byte-identical output: a
// carried view is indistinguishable from a fresh one.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// decodeFuzzRelation interprets fuzz bytes as a schema arity (1–4), one
// ignored byte (once a partition count; kept so the checked-in corpus decodes
// as before) and up to 200 typed rows. The decoder is total and
// over-produces the hard cases: mixed-class columns (which must degrade to
// RepMixed), Int/Date mixtures (one payload class), NaN and -0.0 payloads,
// and duplicate rows.
func decodeFuzzRelation(data []byte) (sch algebra.Schema, rows []algebra.Tuple) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	w := 1 + int(next()%4)
	next()
	sch = make(algebra.Schema, w)
	for i := range sch {
		sch[i] = algebra.Col{Rel: "f", Name: fmt.Sprintf("c%d", i), Type: catalog.Int, Width: 8}
	}
	specials := []algebra.Value{
		algebra.NewFloat(math.NaN()),
		algebra.NewFloat(math.Copysign(0, -1)),
		algebra.NewFloat(math.Inf(1)),
		algebra.NewInt(1<<53 + 1),
		algebra.NewDate(7),
		algebra.NewString(""),
	}
	for len(data) > 0 && len(rows) < 200 {
		row := make(algebra.Tuple, w)
		for c := 0; c < w; c++ {
			switch next() % 5 {
			case 0:
				row[c] = algebra.NewInt(int64(int8(next())))
			case 1:
				row[c] = algebra.NewFloat(float64(int8(next())) / 2)
			case 2:
				row[c] = algebra.NewDate(int64(next() % 16))
			case 3:
				row[c] = algebra.NewString(string(rune('a' + next()%6)))
			default:
				row[c] = specials[int(next())%len(specials)]
			}
		}
		rows = append(rows, row)
	}
	return sch, rows
}

// checkPartView asserts hs is exactly the whole-tuple hash column of rows:
// one hash per row, each equal to Tuple.Hash.
func checkPartView(t *testing.T, what string, hs []uint64, rows []algebra.Tuple) {
	t.Helper()
	if len(hs) != len(rows) {
		t.Fatalf("%s: hash column of %d, want %d", what, len(hs), len(rows))
	}
	for i, row := range rows {
		if hs[i] != row.Hash() {
			t.Fatalf("%s: hash[%d] = %#x, want Tuple.Hash %#x", what, i, hs[i], row.Hash())
		}
	}
}

// checkColVec asserts one typed vector is faithful to column c of the rows:
// the representation classification is the strongest the data admits, and
// every payload is bit-identical to the tuple's. Derived views (extend /
// compaction carries) may conservatively stay RepMixed — e.g. an empty column
// classified RepMixed stays RepMixed when uniform rows are appended — which
// is always sound (readers fall back to the rows), so derived=true accepts
// RepMixed regardless of the data.
func checkColVec(t *testing.T, what string, v *ColVec, rows []algebra.Tuple, c int, derived bool) {
	t.Helper()
	wantRep := RepMixed
	if len(rows) > 0 {
		wantRep = repOf(rows[0][c])
		for _, row := range rows {
			r := repOf(row[c])
			// RepFloat/RepStr classification is by Kind; RepInt admits both
			// Int and Date kinds (one int64 payload class).
			if r != wantRep {
				wantRep = RepMixed
				break
			}
		}
	}
	// A derived vector over zero survivors may keep its typed rep (with an
	// empty payload slice) where a fresh build reports RepMixed; with no
	// elements the distinction is unobservable.
	if v.Rep != wantRep && !(derived && (v.Rep == RepMixed || len(rows) == 0)) {
		t.Fatalf("%s col %d: rep %d, want %d", what, c, v.Rep, wantRep)
	}
	for i, row := range rows {
		switch v.Rep {
		case RepInt:
			if v.I[i] != row[c].I {
				t.Fatalf("%s col %d row %d: int payload %d, want %d", what, c, i, v.I[i], row[c].I)
			}
		case RepFloat:
			if math.Float64bits(v.F[i]) != math.Float64bits(row[c].F) {
				t.Fatalf("%s col %d row %d: float payload not bit-identical", what, c, i)
			}
		case RepStr:
			if v.S[i] != row[c].S {
				t.Fatalf("%s col %d row %d: string payload %q, want %q", what, c, i, v.S[i], row[c].S)
			}
		}
	}
}

// checkKeyHashes asserts the cached hash column equals Tuple.HashCols
// element-wise.
func checkKeyHashes(t *testing.T, what string, h []uint64, rows []algebra.Tuple, cols []int) {
	t.Helper()
	if len(h) != len(rows) {
		t.Fatalf("%s: hash column length %d, want %d", what, len(h), len(rows))
	}
	for i, row := range rows {
		if h[i] != row.HashCols(cols) {
			t.Fatalf("%s: key hash[%d] = %#x, want %#x", what, i, h[i], row.HashCols(cols))
		}
	}
}

func FuzzBatchFromPartView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 5, 0, 9, 0, 5}) // duplicate int rows
	f.Add([]byte{2, 0, 4, 0, 4, 1, 1, 10, 0, 7})
	f.Add([]byte{3, 6, 0, 1, 2, 3, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 4, 5}) // all specials
	f.Add([]byte{0, 7, 2, 1, 2, 2, 0, 3, 2, 4})                         // Int/Date mix: one payload class
	f.Fuzz(func(t *testing.T, data []byte) {
		sch, rows := decodeFuzzRelation(data)
		par := Par{}
		allCols := make([]int, len(sch))
		for i := range allCols {
			allCols[i] = i
		}

		// Split the decoded rows into a base relation and an insert suffix.
		cut := len(rows) * 2 / 3
		base, suffix := rows[:cut], rows[cut:]
		rel := NewRelation(sch)
		for _, row := range base {
			rel.Insert(row)
		}

		// Fresh build.
		checkPartView(t, "fresh", rel.Hashes(), rel.Rows())
		cv := rel.ColView()
		for c := range sch {
			checkColVec(t, "fresh", cv.Col(c), rel.Rows(), c, false)
		}
		checkKeyHashes(t, "fresh", cv.KeyHashes([]int{0}, par), rel.Rows(), []int{0})
		checkKeyHashes(t, "fresh all-cols", cv.KeyHashes(allCols, par), rel.Rows(), allCols)

		// Insert-merge: the carried views must match a from-scratch build
		// over the extended rows.
		other := NewRelation(sch)
		for _, row := range suffix {
			other.Insert(row)
		}
		rel.InsertAllExtend(other)
		checkPartView(t, "extended", rel.Hashes(), rel.Rows())
		ecv := rel.ColView()
		for c := range sch {
			checkColVec(t, "extended", ecv.Col(c), rel.Rows(), c, true)
		}
		checkKeyHashes(t, "extended", ecv.KeyHashes([]int{0}, par), rel.Rows(), []int{0})

		// Delete-merge: remove the rows whose hash is 0 mod 3, once per
		// occurrence at an even ordinal (so duplicates lose only their first
		// few copies), plus one more copy of the first row (absent by then, or
		// one more duplicate). The rows kept must be SubtractAll's, in order,
		// and the carried views must match from-scratch builds — copy-on-write
		// and in place.
		sub := NewRelation(sch)
		for i, row := range rel.Rows() {
			if row.Hash()%3 == 0 && i%2 == 0 {
				sub.Insert(row)
			}
		}
		if len(rows) > 0 {
			sub.Insert(rows[0])
		}
		want := NewRelation(sch)
		want.AppendAll(rel.Rows())
		want.SubtractAll(sub)
		checkMerged := func(what string, got *Relation) {
			t.Helper()
			if got.Len() != want.Len() {
				t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
			}
			for i, row := range want.Rows() {
				if !bitsEqualTuple(row, got.Rows()[i]) {
					t.Fatalf("%s: row %d differs from SubtractAll's", what, i)
				}
			}
			// The views are by ordinal: dead rows keep their places.
			phys, _ := got.Ordinals()
			checkPartView(t, what, got.Hashes(), phys)
			gcv := got.ColView()
			for c := range sch {
				checkColVec(t, what, gcv.Col(c), phys, c, true)
			}
			checkKeyHashes(t, what, gcv.KeyHashes([]int{0}, par), phys, []int{0})
		}
		before := append([]algebra.Tuple(nil), rel.Rows()...)
		checkMerged("minus cow", MinusCOW(rel, sub))
		for i, row := range before {
			if !bitsEqualTuple(row, rel.Rows()[i]) {
				t.Fatalf("MinusCOW rewrote its input at row %d", i)
			}
		}
		rel.SubtractAllCompact(sub)
		checkMerged("minus in place", rel)
	})
}

// bitsEqualTuple is tuple identity down to kinds and float bit patterns
// (-0.0 and NaN payloads distinguish), which Tuple.Equal does not promise.
func bitsEqualTuple(a, b algebra.Tuple) bool {
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
