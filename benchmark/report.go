package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/storage"
)

// envBlock records what the numbers were measured on. The benchmark sets no
// engine, partition or worker option; Engine is what storage.DefaultPar()
// gives a user (MVOPT_EXEC in the environment changes it).
type envBlock struct {
	Engine     string `json:"engine"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (e envBlock) String() string {
	return fmt.Sprintf("engine=%s cores=%d GOMAXPROCS=%d %s commit=%s", e.Engine, e.Cores, e.GOMAXPROCS, e.Go, e.Commit)
}

func currentEnv() envBlock {
	par := storage.DefaultPar()
	engine := "row"
	switch {
	case par.Chain:
		engine = "chained"
	case par.Batch:
		engine = "batch"
	}
	e := envBlock{Engine: engine, Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); e.Commit == "unknown" && err == nil {
		// `go run` does not stamp the revision; ask git when the working
		// directory is a repository's root.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// printResult prints every metric of a run by name with its unit.
func printResult(w io.Writer, wl *workloadDef, c *runCtx, res result) {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v\n", wl.name, c.seed, c.seconds, c.trace)
	fmt.Fprintf(w, "  op: %s\n  env: %s\n", wl.op, currentEnv())
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, ops_failed_share %.6f\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range c.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// manifestJSON renders BENCHMARK.json from the metric and workload tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return buf.Bytes()
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver's runs
// measure.
const runSeconds = 10

// lastLine is the last line of a child's standard output.
func lastLine(out []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return []byte(lines[len(lines)-1])
}
