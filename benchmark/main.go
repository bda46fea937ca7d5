// Command benchmark is this repository's performance ledger: five workloads
// over the ten-view TPC-D system, end-to-end metrics with tracing off and
// per-layer metrics from a traced run. BENCHMARK.json at the repository root
// declares what it reports; README.md in this directory explains it.
//
//	go run ./benchmark --workload refresh_batch --seed 11 --seconds 10 --trace 0
//	go run ./benchmark -seed 11 [-trace 1] [-runs 5] [-out set.json]
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process; empty runs all five, each in a child process")
		seed     = flag.Int64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics (with -workload: instead of the end-to-end ones; without: one extra traced run per workload)")
		runs     = flag.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "without -workload: also write the run set as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two run-set files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
		child    = flag.String("child", "", "internal: run a set-up, crash or recover child")
		childDir = flag.String("dir", "", "internal: scratch directory of the child")
	)
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two run-set files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *child != "":
		if err := runChild(*child, *workload, *childDir, *seed); err != nil {
			fatal(err)
		}
	case *workload != "":
		code, err := runOne(*workload, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	default:
		os.Exit(runAll(*seed, *seconds, *trace != 0, *runs, *out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// outDir is where runs keep scratch state and traces: inside the checkout,
// under the benchmark's own directory (ignored by git).
func outDir() (string, error) {
	if _, err := os.Stat(filepath.Join("benchmark", "main.go")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	dir := filepath.Join("benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// runOne runs one workload in this process and prints its result object as
// the last line of standard output.
func runOne(name string, seed int64, seconds float64, trace bool) (code int, err error) {
	w := workloadByName(name)
	if w == nil {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	od, err := outDir()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(od, name+"-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	c := &runCtx{seed: seed, seconds: seconds, trace: trace, dir: dir, exe: exe}
	res, err := runWorkload(w, c)
	if err != nil {
		return 0, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	printResult(os.Stdout, w, c, res)
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}
