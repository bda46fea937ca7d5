package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// filterBenchRows is a lineitem-sized input (SF 0.01 holds about 60 k rows).
const filterBenchRows = 60_000

// filterBenchRel holds an int column i and a float column f uniform over
// [0, 100), so `col < s` keeps s % of the rows, and a float column g with
// g - f uniform over [shift-50, shift+50), so `f < g` keeps 50+shift %.
func filterBenchRel(shift float64) *storage.Relation {
	rng := rand.New(rand.NewSource(28))
	r := storage.NewRelation(algebra.Schema{{Rel: "t", Name: "i"}, {Rel: "t", Name: "f"}, {Rel: "t", Name: "g"}})
	r.Reserve(filterBenchRows)
	for k := 0; k < filterBenchRows; k++ {
		f := rng.Float64() * 100
		r.Append(algebra.Tuple{
			algebra.NewInt(rng.Int63n(100)),
			algebra.NewFloat(f),
			algebra.NewFloat(f + rng.Float64()*100 - 50 + shift),
		})
	}
	return r
}

// BenchmarkFilterKernels prices one single-conjunct filter (selection bitmap
// plus selection vector — what chainFilter pays) per operand-class pair, at
// selectivities spanning the ledger's serve templates. The cross-class pairs
// are the ones that went value-at-a-time through Value.Compare before the lane
// compile.
func BenchmarkFilterKernels(b *testing.B) {
	f, g := algebra.C("t.f"), algebra.C("t.g")
	kernels := []struct {
		name string
		cmp  func(s int64) algebra.Cmp
	}{
		{"float_col_x_int_lit", func(s int64) algebra.Cmp {
			return algebra.CmpConst("t.f", algebra.LT, algebra.NewInt(s))
		}},
		{"int_col_x_float_lit", func(s int64) algebra.Cmp {
			return algebra.CmpConst("t.i", algebra.LT, algebra.NewFloat(float64(s)-0.5))
		}},
		{"float_col_x_float_col", func(int64) algebra.Cmp {
			return algebra.Cmp{Op: algebra.LT, L: f, R: g}
		}},
		{"arith_lane_x_int_lit", func(s int64) algebra.Cmp {
			return algebra.Cmp{Op: algebra.LT,
				L: algebra.Arith{Op: algebra.Mul, L: f, R: algebra.Const{Val: algebra.NewInt(2)}},
				R: algebra.Const{Val: algebra.NewInt(2 * s)}}
		}},
	}
	for _, sel := range []int64{4, 50, 94} {
		in := filterBenchRel(float64(sel - 50))
		for c := range in.Schema() {
			in.ColView().Col(c) // column vectors are built once per relation version
		}
		for _, k := range kernels {
			pred := algebra.And(k.cmp(sel))
			b.Run(fmt.Sprintf("%s/sel%02d", k.name, sel), func(b *testing.B) {
				kept := 0
				for i := 0; i < b.N; i++ {
					kept = chainFilter(batchOf(in), pred, storage.Par{}).Len()
				}
				if share := int64(100 * kept / in.Len()); share < sel-3 || share > sel+3 {
					b.Fatalf("kept %d %% of the rows, want about %d %%", share, sel)
				}
				b.ReportMetric(float64(in.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
			})
		}
	}
}
