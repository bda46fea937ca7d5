package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runRecord is one child run of one workload.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result,omitempty"`
	// Error is set when the child panicked, timed out or printed no result:
	// the workload failed, it is not dropped.
	Error string `json:"error,omitempty"`
}

// runSet is every run of one invocation: a point of the ledger's trajectory.
type runSet struct {
	Env     envBlock    `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// ledger is the on-disk form: run sets in the order they were appended.
type ledger struct {
	Schema int      `json:"schema"`
	Sets   []runSet `json:"sets"`
}

func readLedger(path string) (ledger, error) {
	var l ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// childTimeout bounds one workload run, set-ups and checks included.
const childTimeout = 170 * time.Second

// runChildWorkload runs one workload in a child process of this program, so
// no workload inherits another's heap or GC state.
func runChildWorkload(exe, name string, seed int64, seconds float64, trace bool) runRecord {
	rec := runRecord{Workload: name, Seed: seed, Trace: trace}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res result
	if jerr := json.Unmarshal(lastLine(out), &res); jerr == nil && res.Metrics != nil {
		rec.Result = &res
		return rec
	}
	switch {
	case ctx.Err() != nil:
		rec.Error = fmt.Sprintf("timed out after %v", childTimeout)
	case err != nil:
		rec.Error = err.Error()
	default:
		rec.Error = "no result printed"
	}
	return rec
}

// runAll runs every workload `runs` times (and once more traced, if asked),
// each run in its own child process, prints the medians and appends the run
// set to the ledger file.
func runAll(seed int64, seconds float64, trace bool, runs int, out string) int {
	od, err := outDir()
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if out == "" {
		out = filepath.Join(od, fmt.Sprintf("runset_seed%d.json", seed))
	}
	set := runSet{Env: currentEnv(), Seed: seed, Seconds: seconds}
	ok := true
	for _, w := range workloads {
		run := func(seed int64, traced bool) {
			rec := runChildWorkload(exe, w.name, seed, seconds, traced)
			if rec.Result == nil || !rec.Result.Correct {
				ok = false
			}
			set.Runs = append(set.Runs, rec)
		}
		for i := 0; i < runs; i++ {
			run(seed+int64(i), false)
		}
		printSummary(os.Stdout, w, set, false)
		if trace { // per-layer numbers have no bound to resolve: one run
			run(seed, true)
			printSummary(os.Stdout, w, set, true)
		}
	}
	l, err := readLedger(out)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		fatal(err)
	}
	l.Schema = 1
	l.Sets = append(l.Sets, set)
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("run set appended to %s\n", out)
	if !ok {
		fmt.Println("FAILED: at least one run failed its checks or printed no result")
		return 1
	}
	return 0
}

// values gathers one metric of one workload over a set's runs.
func (s runSet) values(workload, name string, trace bool) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace && r.Result != nil {
			if m, ok := r.Result.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// printSummary prints a workload's metrics over the set's runs so far:
// median, distance between the quartiles, and the sample count.
func printSummary(w io.Writer, wl *workloadDef, set runSet, trace bool) {
	fmt.Fprintf(w, "workload %s  trace %v\n  op: %s\n  env: %s\n", wl.name, trace, wl.op, set.Env)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := set.values(wl.name, d.Name, trace)
		if len(v) == 0 {
			fmt.Fprintf(w, "  %-34s %14s %-8s\n", d.Name, "-", d.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-8s IQR %.4f  n=%d\n", d.Name, medianOf(v), d.Unit, iqrOf(v), len(v))
	}
	var attempted, failed int64
	for _, r := range set.Runs {
		if r.Workload != wl.name || r.Trace != trace {
			continue
		}
		if r.Result == nil {
			fmt.Fprintf(w, "  RUN FAILED (seed %d): %s\n", r.Seed, r.Error)
			continue
		}
		attempted += r.Result.Attempted
		failed += r.Result.Failed
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, ops_failed_share %.6f\n", attempted, failed, float64(failed)/float64(max(attempted, 1)))
}
