// Package bench regenerates every table and figure of the paper's
// performance study (§7). Each figure is a sweep over update percentages
// comparing Greedy (the paper's algorithm) against NoGreedy (plain Volcano
// extended to choose between incremental maintenance and recomputation, the
// class of [Vis98]). The performance measure is estimated plan cost in
// seconds, exactly as in the paper ("Since we do not currently have a query
// execution engine … the performance measure is estimated execution cost").
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/tpcd"
)

// UpdatePercents are the sweep points used for every figure (the paper
// plots 1–80%).
var UpdatePercents = []float64{1, 5, 10, 20, 40, 60, 80}

// ScaleFactor is the TPC-D scale of the study (paper: 0.1 ≈ 100 MB).
const ScaleFactor = 0.1

// Series is one figure: plan cost versus update percentage for both
// algorithms.
type Series struct {
	Name     string
	Label    string
	X        []float64
	Greedy   []float64
	NoGreedy []float64
}

// Format renders the series as an aligned text table (one row per sweep
// point), mirroring the axes of the paper's plots.
func (s *Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.Name, s.Label)
	fmt.Fprintf(&b, "%10s %14s %14s %8s\n", "update%", "NoGreedy(s)", "Greedy(s)", "ratio")
	for i := range s.X {
		ratio := s.NoGreedy[i] / s.Greedy[i]
		fmt.Fprintf(&b, "%10.0f %14.2f %14.2f %8.2f\n", s.X[i], s.NoGreedy[i], s.Greedy[i], ratio)
	}
	return b.String()
}

// workload bundles one experiment configuration.
type workload struct {
	views  []tpcd.NamedView
	withPK bool
	params cost.Params
}

// runPoint optimizes the workload at one update percentage and returns
// (noGreedy, greedy) total plan costs.
func (w workload) runPoint(pct float64) (ng, g float64, res *greedy.Result) {
	cat := tpcd.NewCatalog(ScaleFactor, w.withPK)
	s := core.NewSystem(cat, core.Options{Params: w.params})
	for _, v := range w.views {
		if _, err := s.AddView(v.Name, v.Def); err != nil {
			panic(err)
		}
	}
	u := diff.UniformPercent(cat, tpcd.UpdatedRelations(), pct)
	base := s.OptimizeNoGreedy(u)
	gp := s.OptimizeGreedy(u, greedy.DefaultConfig())
	return base.TotalCost, gp.TotalCost, gp.Greedy
}

// sweep runs the workload over all update percentages.
func (w workload) sweep(name, label string) *Series {
	s := &Series{Name: name, Label: label}
	for _, pct := range UpdatePercents {
		ng, g, _ := w.runPoint(pct)
		s.X = append(s.X, pct)
		s.NoGreedy = append(s.NoGreedy, ng)
		s.Greedy = append(s.Greedy, g)
	}
	return s
}

func defaultWorkload(views []tpcd.NamedView) workload {
	return workload{views: views, withPK: true, params: cost.Default()}
}

// Figure3a: maintaining a stand-alone view — join of 4 relations, no
// aggregation.
func Figure3a() *Series {
	cat := tpcd.NewCatalog(ScaleFactor, true)
	views := []tpcd.NamedView{{Name: "join4", Def: tpcd.ViewJoin4(cat)}}
	return defaultWorkload(views).sweep("fig3a", "stand-alone view, no aggregation")
}

// Figure3b: the same join with aggregation on top.
func Figure3b() *Series {
	cat := tpcd.NewCatalog(ScaleFactor, true)
	views := []tpcd.NamedView{{Name: "agg4", Def: tpcd.ViewAgg4(cat)}}
	return defaultWorkload(views).sweep("fig3b", "stand-alone view, with aggregation")
}

// Figure4a: a set of five related views without aggregation.
func Figure4a() *Series {
	cat := tpcd.NewCatalog(ScaleFactor, true)
	return defaultWorkload(tpcd.ViewSet5(cat, false)).
		sweep("fig4a", "five views of the same class, no aggregation")
}

// Figure4b: five aggregate views over shared joins.
func Figure4b() *Series {
	cat := tpcd.NewCatalog(ScaleFactor, true)
	return defaultWorkload(tpcd.ViewSet5(cat, true)).
		sweep("fig4b", "five views of the same class, with aggregation")
}

// Figure5a: ten views of 3–4 relations each, with predefined PK indexes.
func Figure5a() *Series {
	cat := tpcd.NewCatalog(ScaleFactor, true)
	return defaultWorkload(tpcd.ViewSet10(cat)).
		sweep("fig5a", "ten views, predefined PK indexes")
}

// Figure5b: the same ten views without any initial indexes; the required
// indexes must be chosen by Greedy.
func Figure5b() *Series {
	cat := tpcd.NewCatalog(ScaleFactor, false)
	w := workload{views: tpcd.ViewSet10(cat), withPK: false, params: cost.Default()}
	return w.sweep("fig5b", "ten views, no predefined indexes")
}

// OptTimeResult reproduces §7.2 "Cost of Optimization": wall-clock time of
// Greedy on the ten-view workload, set against the plan-cost savings of one
// refresh.
type OptTimeResult struct {
	Elapsed       time.Duration
	Candidates    int
	BenefitCalls  int
	SavingsPerRun float64 // NoGreedy − Greedy plan cost at 10% updates
	ChosenCount   int
	IndexesChosen int
}

// OptimizationTime measures the greedy optimizer on the Figure-5 workload.
func OptimizationTime() OptTimeResult {
	cat := tpcd.NewCatalog(ScaleFactor, true)
	w := defaultWorkload(tpcd.ViewSet10(cat))
	start := time.Now()
	ng, g, res := w.runPoint(10)
	elapsed := time.Since(start)
	out := OptTimeResult{
		Elapsed:       elapsed,
		Candidates:    res.CandidateCount,
		BenefitCalls:  res.BenefitCalls,
		SavingsPerRun: ng - g,
		ChosenCount:   len(res.Chosen),
	}
	for _, c := range res.Chosen {
		if c.Change.Kind == diff.ChangeIndex {
			out.IndexesChosen++
		}
	}
	return out
}

// Format renders the optimization-time result.
func (r OptTimeResult) Format() string {
	return fmt.Sprintf(
		"t-opt — cost of optimization (10 views)\n"+
			"  greedy optimization time: %v\n"+
			"  candidates: %d, benefit calls: %d, chosen: %d (indexes: %d)\n"+
			"  plan-cost savings per refresh at 10%% updates: %.2f s\n",
		r.Elapsed.Round(time.Millisecond), r.Candidates, r.BenefitCalls,
		r.ChosenCount, r.IndexesChosen, r.SavingsPerRun)
}

// MatSplit reproduces §7.2 "Temporary vs. Permanent Materialization": counts
// of chosen full results for which recomputation is cheaper (temporary) and
// for which maintenance is cheaper (permanent), tallied over all workloads
// and update rates, plus the low/high-rate bands the paper quotes
// (281:306 at 1–5 %, 360:88 at 50–90 %).
type MatSplit struct {
	Temporary, Permanent int
	LowTemp, LowPerm     int // 1–5 % band
	HighTemp, HighPerm   int // 50–90 % band
}

// TempVsPermanent tallies temporary/permanent decisions across the figure
// workloads and the full update-rate range.
func TempVsPermanent() MatSplit {
	var out MatSplit
	catA := tpcd.NewCatalog(ScaleFactor, true)
	catB := tpcd.NewCatalog(ScaleFactor, true)
	catC := tpcd.NewCatalog(ScaleFactor, true)
	workloads := []workload{
		defaultWorkload(tpcd.ViewSet5(catA, false)),
		defaultWorkload(tpcd.ViewSet5(catB, true)),
		defaultWorkload(tpcd.ViewSet10(catC)),
	}
	rates := []float64{1, 5, 10, 20, 50, 70, 90}
	for _, w := range workloads {
		for _, pct := range rates {
			_, _, res := w.runPoint(pct)
			for _, c := range res.Chosen {
				if c.Change.Kind != diff.ChangeFull {
					continue
				}
				if c.Permanent {
					out.Permanent++
				} else {
					out.Temporary++
				}
				switch {
				case pct <= 5:
					if c.Permanent {
						out.LowPerm++
					} else {
						out.LowTemp++
					}
				case pct >= 50:
					if c.Permanent {
						out.HighPerm++
					} else {
						out.HighTemp++
					}
				}
			}
		}
	}
	return out
}

// Format renders the split.
func (m MatSplit) Format() string {
	return fmt.Sprintf(
		"t-mat — temporary vs. permanent materialization\n"+
			"  overall: %d temporary (recompute cheaper), %d permanent (maintain cheaper)\n"+
			"  1–5%% updates:   %d temporary : %d permanent\n"+
			"  50–90%% updates: %d temporary : %d permanent\n",
		m.Temporary, m.Permanent, m.LowTemp, m.LowPerm, m.HighTemp, m.HighPerm)
}

// BufferResult reproduces §7.2 "Effect of Buffer Size": the Figure-4(a)
// workload at 8000 versus 1000 buffer blocks.
type BufferResult struct {
	Pcts                       []float64
	BigNoGreedy, BigGreedy     []float64
	SmallNoGreedy, SmallGreedy []float64
}

// BufferComparison runs the five-view workload at both buffer sizes.
func BufferComparison() BufferResult {
	var out BufferResult
	for _, pct := range []float64{1, 5, 10, 20} {
		catBig := tpcd.NewCatalog(ScaleFactor, true)
		big := workload{views: tpcd.ViewSet5(catBig, false), withPK: true, params: cost.Default()}
		bn, bg, _ := big.runPoint(pct)
		catSmall := tpcd.NewCatalog(ScaleFactor, true)
		small := workload{views: tpcd.ViewSet5(catSmall, false), withPK: true, params: cost.SmallBuffer()}
		sn, sg, _ := small.runPoint(pct)
		out.Pcts = append(out.Pcts, pct)
		out.BigNoGreedy = append(out.BigNoGreedy, bn)
		out.BigGreedy = append(out.BigGreedy, bg)
		out.SmallNoGreedy = append(out.SmallNoGreedy, sn)
		out.SmallGreedy = append(out.SmallGreedy, sg)
	}
	return out
}

// Format renders the buffer comparison.
func (r BufferResult) Format() string {
	var b strings.Builder
	b.WriteString("t-buf — effect of buffer size (five-view workload)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s %10s %10s\n",
		"update%", "8000 NoGr", "8000 Gr", "1000 NoGr", "1000 Gr", "ratio8000", "ratio1000")
	for i := range r.Pcts {
		fmt.Fprintf(&b, "%8.0f %12.2f %12.2f %12.2f %12.2f %10.2f %10.2f\n",
			r.Pcts[i], r.BigNoGreedy[i], r.BigGreedy[i], r.SmallNoGreedy[i], r.SmallGreedy[i],
			r.BigNoGreedy[i]/r.BigGreedy[i], r.SmallNoGreedy[i]/r.SmallGreedy[i])
	}
	return b.String()
}
