package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per workload and end-to-end metric, both run sets'
// medians and quartile distances, the ratio with its base, and a verdict:
// ok, regressed (b's median is worse than a's by more than the bound) or
// unresolved (either set's spread is wider than the bound, so the runs
// cannot tell). With one file named twice it compares the file's last two
// sets. It reports false when anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	la, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	lb, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	if len(la.Sets) == 0 || len(lb.Sets) == 0 {
		return false, fmt.Errorf("a file holds no run set")
	}
	a, b := la.Sets[len(la.Sets)-1], lb.Sets[len(lb.Sets)-1]
	if pathA == pathB {
		if len(la.Sets) < 2 {
			return false, fmt.Errorf("%s holds one run set; comparing needs two", pathA)
		}
		a = la.Sets[len(la.Sets)-2]
	}
	fmt.Fprintf(w, "a: seed %d  %s\nb: seed %d  %s\n", a.Seed, a.Env, b.Seed, b.Env)
	fmt.Fprintf(w, "%-15s %-16s %12s %10s %12s %10s %9s %6s  %s\n", "workload", "metric", "a median", "a IQR", "b median", "b IQR", "b/a", "bound", "verdict")
	ok := true
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name, false), b.values(wl.name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-16s missing in one set\n", wl.name, d.Name)
				ok = false
				continue
			}
			ma, mb := medianOf(va), medianOf(vb)
			worse := mb/ma - 1
			if d.Better == "higher" {
				worse = 1 - mb/ma
			}
			verdict := "ok"
			switch {
			case iqrOf(va)/ma > d.Bound || iqrOf(vb)/mb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %10.4f %12.4f %10.4f %9.4f %6.2f  %s\n",
				wl.name, d.Name, ma, iqrOf(va), mb, iqrOf(vb), mb/ma, d.Bound, verdict)
		}
	}
	return ok, nil
}
