package storage

// FuzzBatchFromPartView drives the operator engine's storage substrate — the
// hash-partition view and the columnar view — from arbitrary bytes: a fuzzed
// relation (random arity, mixed and uniform columns, IEEE specials) is
// partitioned, columnized, extended by an insert-merge and compacted by a
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

// decodeFuzzRelation interprets fuzz bytes as a schema arity (1–4), a
// partition count (1–8) and up to 200 typed rows. The decoder is total and
// over-produces the hard cases: mixed-class columns (which must degrade to
// RepMixed), Int/Date mixtures (one payload class), NaN and -0.0 payloads,
// and duplicate rows.
func decodeFuzzRelation(data []byte) (sch algebra.Schema, rows []algebra.Tuple, parts int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	w := 1 + int(next()%4)
	parts = 1 + int(next()%8)
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
	return sch, rows, parts
}

// checkPartView asserts pv is exactly the hash partitioning of rows: per-row
// hashes match Tuple.Hash, and the partition lists cover every index exactly
// once, ascending, each in the partition its hash selects.
func checkPartView(t *testing.T, what string, pv *PartView, rows []algebra.Tuple) {
	t.Helper()
	seen := make([]bool, len(rows))
	for i, row := range rows {
		if pv.Hash(i) != row.Hash() {
			t.Fatalf("%s: hash[%d] = %#x, want Tuple.Hash %#x", what, i, pv.Hash(i), row.Hash())
		}
	}
	P := uint64(pv.Parts())
	for p := 0; p < pv.Parts(); p++ {
		prev := int32(-1)
		for _, i := range pv.Rows(p) {
			if i <= prev {
				t.Fatalf("%s: partition %d indexes not ascending at %d", what, p, i)
			}
			prev = i
			if seen[i] {
				t.Fatalf("%s: row %d appears in two partitions", what, i)
			}
			seen[i] = true
			if int(pv.Hash(int(i))%P) != p {
				t.Fatalf("%s: row %d in partition %d, hash selects %d",
					what, i, p, pv.Hash(int(i))%P)
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("%s: row %d missing from every partition", what, i)
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
	f.Add([]byte{1, 3, 0, 5, 0, 9, 0, 5}) // duplicate int rows, 4 partitions
	f.Add([]byte{2, 0, 4, 0, 4, 1, 1, 10, 0, 7})
	f.Add([]byte{3, 6, 0, 1, 2, 3, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 4, 5}) // all specials
	f.Add([]byte{0, 7, 2, 1, 2, 2, 0, 3, 2, 4})                         // Int/Date mix: one payload class
	f.Fuzz(func(t *testing.T, data []byte) {
		sch, rows, parts := decodeFuzzRelation(data)
		par := Par{Partitions: parts, Workers: 2}.Norm()
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
		pv := rel.PartView(par)
		checkPartView(t, "fresh", pv, rel.Rows())
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
		checkPartView(t, "extended", rel.PartView(par), rel.Rows())
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
			checkPartView(t, what, got.PartView(par), got.Rows())
			gcv := got.ColView()
			for c := range sch {
				checkColVec(t, what, gcv.Col(c), got.Rows(), c, true)
			}
			checkKeyHashes(t, what, gcv.KeyHashes([]int{0}, par), got.Rows(), []int{0})
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
