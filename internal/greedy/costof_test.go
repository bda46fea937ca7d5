package greedy

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/diff"
)

// costOf is the test oracle for a run's reported totals: the per-cycle
// workload cost — view refresh plus weighted query evaluation — of the views
// plus exactly the given extra changes (duplicates ignored), priced from
// scratch rather than incrementally.
func costOf(en *diff.Engine, views []*dag.Equiv, queries []WeightedQuery, changes []diff.Change) float64 {
	s := &Selector{En: en, Views: views, Queries: queries}
	ms := diff.NewMatState()
	set := &chosenSet{}
	for _, v := range views {
		ms.Fulls.Full[v.ID] = true
		set.fulls = append(set.fulls, v.ID)
	}
	seen := map[diff.Change]bool{}
	for _, c := range changes {
		if seen[c] {
			continue
		}
		seen[c] = true
		c.Apply(ms)
		set = s.withChange(set, c)
	}
	return s.totalCost(en.NewEval(ms), set)
}

// chosenChanges extracts the chosen changes of a result, in pick order.
func chosenChanges(res *Result) []diff.Change {
	out := make([]diff.Change, len(res.Chosen))
	for i, d := range res.Chosen {
		out[i] = d.Change
	}
	return out
}

func TestCostOfMatchesRunTotals(t *testing.T) {
	en, roots := setup(t, 5, true, loc, lop)
	res := Run(en, roots, DefaultConfig())
	// costOf over the chosen set must reproduce the run's final cost, and
	// over the empty set its initial cost.
	if got := costOf(en, roots, nil, chosenChanges(res)); !closeTo(got, res.FinalCost) {
		t.Errorf("costOf(chosen) = %g, want FinalCost %g", got, res.FinalCost)
	}
	if got := costOf(en, roots, nil, nil); !closeTo(got, res.InitialCost) {
		t.Errorf("costOf(∅) = %g, want InitialCost %g", got, res.InitialCost)
	}
	// Duplicated changes must not change the answer.
	dup := append(chosenChanges(res), chosenChanges(res)...)
	if got := costOf(en, roots, nil, dup); !closeTo(got, res.FinalCost) {
		t.Errorf("costOf with duplicates = %g, want %g", got, res.FinalCost)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+b)
}
