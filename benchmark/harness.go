package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's arguments into a workload and its counts back out.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is this run's scratch directory (WAL, stage logs); removed at exit.
	dir string
	// toy shrinks every workload for the in-process smoke test: SF 0.001 and
	// nothing that needs a child process (one set-up, no crash leg).
	toy bool
	// exe is the program to re-execute for the set-up, crash and recovery
	// children.
	exe string

	attempted, failed int64
	// layer holds the per-layer values gathered so far.
	layer map[string]float64
	notes []string
}

// fail counts n failed operations and records why.
func (c *runCtx) fail(n int64, format string, args ...any) {
	c.failed += n
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

func (c *runCtx) sf(full float64) float64 {
	if c.toy {
		return 0.001
	}
	return full
}

// phase is what one call of instance.window measured.
type phase struct {
	// op holds the foreground operation's latencies.
	op samples
	// busy is the time the ops/s rate is taken over: the window for reader
	// workloads, the sum of op times where one closed-loop writer alternates
	// between generating load and the op.
	busy time.Duration
	// refresh, install and lag are the background writer's samples where the
	// workload has one (diagnostics of the traced run).
	refresh, install, lag samples
}

// instance is one set-up system.
type instance interface {
	// window drives the workload's load for d and returns the foreground
	// op's samples. tr is nil in the untraced run.
	window(c *runCtx, d time.Duration, tr *tracer) phase
	// check verifies outputs after the window, outside every timing.
	check(c *runCtx)
	// probes runs the layer probes of the traced run within about d.
	probes(c *runCtx, d time.Duration, tr *tracer)
	close()
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	// op says what the foreground operation is.
	op  string
	why string
	// setup builds an instance in the scratch directory dir.
	setup func(c *runCtx, dir string, tr *tracer) (instance, stageTimes, error)
}

// setupsPerRun is how many times a run sets the system up: setup_s is their
// median, since one set-up is a single noisy sample. All but the measured one
// run in child processes: every set-up is then the first in its process, as a
// user's is, and the measured process's peak memory is that of one instance.
const setupsPerRun = 5

// childSetup sets the workload up once in a child process and returns the
// set-up time in seconds.
func childSetup(w *workloadDef, c *runCtx, dir string) (float64, error) {
	out, err := exec.Command(c.exe, "-child", "setup", "-workload", w.name, "-dir", dir, "-seed", strconv.FormatInt(c.seed, 10)).Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(lastLine(out)), 64)
}

// measured is what the run's measured instance produced.
type measured struct {
	st     stageTimes
	plain  phase // untraced window
	traced phase // traced part of the window (traced run only)
	cpu    time.Duration
	wall   time.Duration
	m0, m1 runtime.MemStats
	verify time.Duration
}

// measure sets the workload up once, warms it, measures it for d and checks
// its outputs. With a tracer the first third of the window runs untraced so
// the same run prices the tracing, and the layer probes follow the checks.
func measure(w *workloadDef, c *runCtx, dir string, d time.Duration, tr *tracer) (r measured, err error) {
	runtime.GC()
	inst, st, err := w.setup(c, dir, tr)
	if err != nil {
		return r, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	r.st = st
	inst.window(c, d/5, nil) // warm-up: its samples are discarded, its failures are not

	runtime.GC()
	runtime.ReadMemStats(&r.m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	if tr != nil {
		r.plain = inst.window(c, d/3, nil)
		r.traced = inst.window(c, d-d/3, tr)
	} else {
		r.plain = inst.window(c, d, nil)
	}
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&r.m1)

	t0 = time.Now()
	inst.check(c)
	r.verify = time.Since(t0)
	if tr != nil {
		inst.probes(c, d/3, tr)
	}
	return r, nil
}

// runWorkload runs one workload once and assembles its metrics.
func runWorkload(w *workloadDef, c *runCtx) (res result, err error) {
	c.layer = map[string]float64{}
	total := time.Duration(c.seconds * float64(time.Second))
	res.Metrics = map[string]metric{}

	if !c.trace {
		n := setupsPerRun
		if c.toy {
			n = 1
		}
		var setups []float64
		for i := 0; i < n-1; i++ {
			d, err := childSetup(w, c, filepath.Join(c.dir, fmt.Sprintf("setup%d", i)))
			if err != nil {
				return res, fmt.Errorf("%s: set-up child: %w", w.name, err)
			}
			setups = append(setups, d)
		}
		r, err := measure(w, c, filepath.Join(c.dir, "run"), total, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, r.st.Setup.Seconds())
		if len(r.plain.op) == 0 {
			return res, fmt.Errorf("%s: no operation completed in %v", w.name, total)
		}
		ms, ops := r.plain.op.ms(), float64(len(r.plain.op))
		put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		put("setup_s", medianOf(setups))
		put("op_ms_p50", quantile(ms, 0.5))
		put("op_ms_p90", quantile(ms, 0.9))
		put("ops_per_s", ops/r.plain.busy.Seconds())
		put("cpu_ms_per_op", msOf(r.cpu)/ops)
		put("alloc_kb_per_op", float64(r.m1.TotalAlloc-r.m0.TotalAlloc)/1024/ops)
		put("peak_rss_mb", peakRSSMB())
	} else {
		tr := newTracer()
		r, err := measure(w, c, filepath.Join(c.dir, "run"), total, tr)
		if err != nil {
			return res, err
		}
		if len(r.traced.op) == 0 {
			return res, fmt.Errorf("%s: no operation completed in %v", w.name, total)
		}
		ms := r.traced.op.ms()
		l := c.layer
		l["op_ms_p99"] = quantile(ms, 0.99)
		l["op_samples"] = float64(len(ms))
		l["refresh_ms_p50"] = quantile(r.traced.refresh.ms(), 0.5)
		l["refresh_ms_p90"] = quantile(r.traced.refresh.ms(), 0.9)
		l["install_ms_p50"] = quantile(r.traced.install.ms(), 0.5)
		l["core.writer_lag_ms_p50"] = quantile(r.traced.lag.ms(), 0.5)
		if p := quantile(r.plain.op.ms(), 0.5); p > 0 {
			l["trace.overhead_pct"] = 100 * (quantile(ms, 0.5)/p - 1)
		}
		l["tpcd.generate_s"] = r.st.Generate.Seconds()
		l["dag.build_ms"] = msOf(r.st.DagBuild)
		l["greedy.select_ms"] = msOf(r.st.Greedy)
		l["greedy.benefit_calls"] = float64(r.st.BenefitCalls)
		l["exec.materialize_ms"] = msOf(r.st.Materialize)
		l["core.enable_ms"] = msOf(r.st.Enable)
		l["core.verify_ms"] = msOf(r.verify)
		l["go.gc_pause_ms_per_s"] = float64(r.m1.PauseTotalNs-r.m0.PauseTotalNs) / 1e6 / r.wall.Seconds()
		l["go.gc_cycles"] = float64(r.m1.NumGC - r.m0.NumGC)
		l["go.alloc_mb_per_s"] = float64(r.m1.TotalAlloc-r.m0.TotalAlloc) / (1 << 20) / r.wall.Seconds()
		for _, d := range perLayer {
			v := l[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[d.Name] = metric{v, d.Unit}
		}
		if !c.toy {
			if err := tr.write(filepath.Join(filepath.Dir(c.dir), "trace_"+w.name+".json")); err != nil {
				return res, err
			}
		}
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// dirSizeMB sums the regular files under dir.
func dirSizeMB(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { // a vanished file only shrinks the sum
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
