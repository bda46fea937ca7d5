package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/tpcd"
)

// TestUpdateGenStationary: the same seed gives the same op sequence, another
// seed another one, and the database keeps its size over 150 cycles.
func TestUpdateGenStationary(t *testing.T) {
	rels := tpcd.UpdatedRelations()
	cat, db, _ := genData(0.001, 11)
	_, db2, _ := genData(0.001, 11)
	start := rowCounts(db)
	a, b := newUpdateGen(cat, rels, 5, 11), newUpdateGen(cat, rels, 5, 11)
	other := newUpdateGen(cat, rels, 5, 12).next(db)
	for cycle := 0; cycle < 150; cycle++ {
		ops, ops2 := a.next(db), b.next(db2)
		if len(ops) == 0 || len(ops) != len(ops2) {
			t.Fatalf("cycle %d: %d ops against %d for the same seed", cycle, len(ops), len(ops2))
		}
		ins, differs := 0, false
		for i, op := range ops {
			if op.Rel != ops2[i].Rel || op.Del != ops2[i].Del || !op.Tuple.Equal(ops2[i].Tuple) {
				t.Fatalf("cycle %d op %d differs between two generators of one seed", cycle, i)
			}
			if !op.Del {
				ins++
			}
			if cycle == 0 && !op.Tuple.Equal(other[i].Tuple) {
				differs = true
			}
		}
		if 2*ins != len(ops) {
			t.Fatalf("cycle %d: %d inserts among %d ops, want half", cycle, ins, len(ops))
		}
		if cycle == 0 && !differs {
			t.Error("seeds 11 and 12 gave the same ops")
		}
		logOps(db, ops)
		logOps(db2, ops2)
		for _, name := range rels {
			db.ApplyInserts(name)
			db.ApplyDeletes(name)
			db2.ApplyInserts(name)
			db2.ApplyDeletes(name)
		}
	}
	for name, n0 := range start {
		if n := db.MustRelation(name).Len(); math.Abs(float64(n-n0)) > 0.01*float64(n0) {
			t.Errorf("%s went from %d to %d rows over 150 cycles", name, n0, n)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAllWorkloads runs every workload in-process at toy size, untraced
// and traced, and checks that each emits exactly the metrics BENCHMARK.json
// declares, with units, finite, and that every correctness check (the staged
// serving pipeline against Runtime.Query among them) passes.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := &runCtx{seed: 11, seconds: 0.6, trace: trace, toy: true, dir: t.TempDir()}
			res, err := runWorkload(w, c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, res.Correct, res.Attempted, res.Failed, c.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is not finite", w.name, d.Name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if trace && strings.HasPrefix(w.name, "serve") && res.Metrics["cache.execute_root_us_p50"].Value <= 0 {
				t.Errorf("%s: no query was replayed through the staged pipeline", w.name)
			}
		}
	}
}

// TestManifestMatchesTables: BENCHMARK.json is `-manifest`'s output, names
// are well-formed and used once.
func TestManifestMatchesTables(t *testing.T) {
	want := manifestJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q is malformed", w.name)
		}
		seen[w.name] = true
	}
}

// TestCompareVerdicts: ok within the bound, regressed beyond it, unresolved
// when a set's own spread is wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	set := func(p50 ...float64) runSet {
		var s runSet
		for _, w := range workloads {
			for i, v := range p50 {
				m := map[string]metric{}
				for _, d := range endToEnd {
					m[d.Name] = metric{100, d.Unit}
				}
				m["op_ms_p50"] = metric{v, "ms"}
				s.Runs = append(s.Runs, runRecord{Workload: w.name, Seed: int64(i), Result: &result{Correct: true, Attempted: 1, Metrics: m}})
			}
		}
		return s
	}
	write := func(name string, s runSet) string {
		p := filepath.Join(t.TempDir(), name)
		b, err := json.Marshal(ledger{Schema: 1, Sets: []runSet{s}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bound := endToEnd[1].Bound // op_ms_p50's
	around := func(m float64) runSet { return set(m, 1.01*m, 1.02*m, 1.03*m) }
	base := write("a.json", around(10))
	for _, tc := range []struct {
		b           runSet
		ok          bool
		has, hasNot string
	}{
		{around(10 * (1 + bound/2)), true, "ok", "regressed"},
		{around(10 * (1 + 2*bound)), false, "regressed", "unresolved"},
		{set(10, 10*(1+2*bound), 10*(1+4*bound), 10*(1+6*bound)), true, "unresolved", "regressed"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write("b.json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.has) || strings.Contains(out.String(), tc.hasNot) {
			t.Errorf("compare gave ok=%v, want %v with %q and without %q:\n%s", ok, tc.ok, tc.has, tc.hasNot, out.String())
		}
	}
}
