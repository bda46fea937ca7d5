package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/tpcd"
	"repro/internal/wal"
)

// Flush policy of the durable workload, stated here and in the README: every
// WAL append is fsynced, group-committed over a 2 ms window; periodic spills
// are off so a recovery replays every batch since boot; the ingest queue cuts
// micro-batches at 2000 rows or 50 ms and blocks producers when full.
func durableOptions(dir string) core.DurableOptions {
	return core.DurableOptions{
		Dir:          dir,
		Fsync:        true,
		CommitWindow: 2 * time.Millisecond,
		SpillEvery:   -1,
		Queue:        ingest.Config{MaxBatchRows: 2000, MaxBatchWait: 50 * time.Millisecond, Policy: ingest.Block},
	}
}

// durablePct sizes one streamed batch: 2 % of every updated relation, in and
// out.
const durablePct = 2

// durableIngest streams balanced update batches through Runtime.Ingest into
// a WAL-backed runtime; the foreground op is one batch becoming visible:
// first Ingest of the batch until FlushIngest returns (logged, refreshed,
// published).
type durableIngest struct {
	b     *base
	rt    *core.Runtime
	gen   *updateGen
	dir   string
	start map[string]int

	rows              int64         // ops streamed in measured windows
	inIngest, inBatch time.Duration // producer time inside Ingest / per batch
	userBytes         int64
	wal0              wal.Stats
	counting          bool
}

// openDurable builds the plan and boots it on dir: a fresh boot on an empty
// directory, a recovery on one with a manifest.
func openDurable(c *runCtx, dir string, tr *tracer) (*durableIngest, *core.RecoveryInfo, error) {
	cat, db, gen := genData(c.sf(0.01), c.seed)
	t0 := time.Now()
	b, err := newBase(cat, db, durablePct, tr)
	if err != nil {
		return nil, nil, err
	}
	w := &durableIngest{b: b, dir: dir, start: rowCounts(db)}
	id := tr.begin("core.OpenDurable", 0, 0)
	t1 := time.Now()
	rt, info, err := b.plan.OpenDurable(db, durableOptions(dir))
	b.st.Materialize = time.Since(t1)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	w.rt = rt
	t1 = time.Now()
	if err := rt.StartIngest(); err != nil {
		return nil, nil, err
	}
	b.st.Enable = time.Since(t1)
	w.gen = newUpdateGen(cat, tpcd.UpdatedRelations(), durablePct, c.seed)
	b.st.Generate, b.st.Setup = gen, time.Since(t0)
	return w, info, nil
}

func setupDurableIngest(c *runCtx, dir string, tr *tracer) (instance, stageTimes, error) {
	w, _, err := openDurable(c, dir, tr)
	if err != nil {
		return nil, stageTimes{}, err
	}
	first, err := w.batch(nil, 0) // first use
	if err != nil {
		return nil, stageTimes{}, err
	}
	w.b.st.Setup += first
	return w, w.b.st, nil
}

// batch streams one balanced batch and waits until it is visible.
func (w *durableIngest) batch(tr *tracer, op int64) (time.Duration, error) {
	id := tr.begin("load.updates", 0, op)
	ops := w.gen.next(w.rt.Snapshots().Current().Database())
	for _, o := range ops {
		w.userBytes += int64(len(wal.AppendTuple(nil, o.Tuple)))
	}
	tr.end(id)
	id = tr.begin("core.IngestBatch", 0, op)
	defer tr.end(id)
	t0 := time.Now()
	for _, o := range ops {
		if err := w.rt.Ingest(o); err != nil {
			return 0, err
		}
	}
	w.inIngest += time.Since(t0)
	fid := tr.begin("core.FlushIngest", id, op)
	err := w.rt.FlushIngest()
	tr.end(fid)
	d := time.Since(t0)
	w.inBatch += d
	w.rows += int64(len(ops))
	return d, err
}

func (w *durableIngest) window(c *runCtx, d time.Duration, tr *tracer) phase {
	if !w.counting { // counters start with the first window, after set-up's first batch
		w.counting = true
		w.wal0 = w.rt.DurableStats().WAL
		w.rows, w.userBytes, w.inIngest, w.inBatch = 0, 0, 0, 0
	}
	var p phase
	var op int64
	for end := time.Now().Add(d); time.Now().Before(end); {
		op++
		c.attempted++
		t, err := w.batch(tr, op)
		if err != nil {
			c.fail(1, "ingest: %v", err)
			return p
		}
		p.op.add(t)
		p.busy += t
	}
	return p
}

// check verifies the views and the database size, then runs the crash leg:
// a child process streams a few acknowledged batches and is SIGKILLed; a
// fresh child recovers its directory, which must hold every acknowledged
// batch and verify.
func (w *durableIngest) check(c *runCtx) {
	if err := w.rt.FlushIngest(); err != nil {
		c.fail(1, "flush: %v", err)
	}
	checkViews(c, w.rt)
	checkStationary(c, w.start, rowCounts(w.rt.Snapshots().Current().Database()))
	st := w.rt.DurableStats()
	c.attempted++
	if st.Queue.Shed > 0 {
		c.fail(st.Queue.Shed, "%d ops shed", st.Queue.Shed)
	}
	c.layer["ingest.shed"] = float64(st.Queue.Shed)
	if w.inBatch > 0 {
		c.layer["ingest.rows_per_s"] = float64(w.rows) / w.inBatch.Seconds()
		c.layer["ingest.blocked_share"] = w.inIngest.Seconds() / w.inBatch.Seconds()
	}
	walBytes := st.WAL.Bytes - w.wal0.Bytes
	if w.userBytes > 0 {
		c.layer["wal.bytes_per_user_byte"] = float64(walBytes) / float64(w.userBytes)
	}
	if n := st.WAL.Appends - w.wal0.Appends; n > 0 {
		c.layer["ingest.batch_rows_mean"] = float64(w.rows) / float64(n)
		c.layer["wal.commit_wait_ms_mean"] = float64(st.WAL.WaitNanos-w.wal0.WaitNanos) / 1e6 / float64(n)
		if s := st.WAL.Syncs - w.wal0.Syncs; s > 0 {
			c.layer["wal.appends_per_sync"] = float64(n) / float64(s)
		}
	}
	c.layer["wal.dir_mb"] = dirSizeMB(w.dir)
	w.crashLeg(c)
}

func (w *durableIngest) probes(c *runCtx, _ time.Duration, tr *tracer) {
	probeSetup(c, w.b, tr)
	probeWAL(c, w, tr)
}

func (w *durableIngest) close() {
	// The run's directory is thrown away: an error closing it changes nothing
	// that was measured.
	_ = w.rt.CloseDurable()
}

// crashBatches is how many batches the crash child acknowledges before it is
// killed; the recovery replays exactly their WAL appends.
const crashBatches = 8

// crashLeg runs the SIGKILL-and-recover check in child processes.
func (w *durableIngest) crashLeg(c *runCtx) {
	c.attempted++
	if c.toy {
		return
	}
	dir := filepath.Join(c.dir, "crash")
	acked, err := crashChild(c, dir)
	if err != nil {
		c.fail(1, "crash child: %v", err)
		return
	}
	out, err := exec.Command(c.exe, "-child", "recover", "-dir", dir, "-seed", strconv.FormatInt(c.seed, 10)).Output()
	if err != nil {
		c.fail(1, "recover child: %v", err)
		return
	}
	var rec recovered
	if err := json.Unmarshal(lastLine(out), &rec); err != nil {
		c.fail(1, "recover child output: %v", err)
		return
	}
	if rec.LastBatch < acked || !rec.Verified {
		c.fail(1, "recovery lost acknowledged batches: recovered %d, acknowledged %d, verified %v", rec.LastBatch, acked, rec.Verified)
	}
	c.layer["recover_s"] = rec.RecoverS
	c.layer["core.replay_batches"] = float64(rec.Replayed)
}

// crashChild starts the crash child, waits for its acknowledgement line,
// kills it with SIGKILL and reaps it. It returns the acknowledged batch.
func crashChild(c *runCtx, dir string) (int64, error) {
	cmd := exec.Command(c.exe, "-child", "crash", "-dir", dir, "-seed", strconv.FormatInt(c.seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	kerr := cmd.Process.Signal(syscall.SIGKILL)
	_ = cmd.Wait() // it was killed: the exit status says so and nothing else
	if rerr != nil {
		return 0, fmt.Errorf("no acknowledgement: %w", rerr)
	}
	if kerr != nil {
		return 0, kerr
	}
	acked, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "ACK ")), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("acknowledgement %q: %w", line, err)
	}
	return acked, nil
}

// recovered is what the recovery child reports.
type recovered struct {
	RecoverS  float64 `json:"recover_s"`
	Replayed  int     `json:"replayed"`
	LastBatch int64   `json:"last_batch"`
	Verified  bool    `json:"verified"`
}

// runChild is the body of the child processes: a set-up of any workload, and
// the crash and recovery legs of durable_ingest.
func runChild(kind, workload, dir string, seed int64) error {
	c := &runCtx{seed: seed}
	switch kind {
	case "setup":
		w := workloadByName(workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		inst, st, err := w.setup(c, dir, nil)
		if err != nil {
			return err
		}
		inst.close()
		fmt.Println(st.Setup.Seconds())
		return nil
	case "crash":
		w, _, err := openDurable(c, dir, nil)
		if err != nil {
			return err
		}
		for i := 0; i < crashBatches; i++ {
			if _, err := w.batch(nil, 0); err != nil {
				return err
			}
		}
		fmt.Printf("ACK %d\n", w.rt.DurableStats().LastBatch)
		time.Sleep(time.Minute) // every batch is acknowledged; wait for the SIGKILL
		return fmt.Errorf("crash child was not killed")
	case "recover":
		w, info, err := openDurable(c, dir, nil)
		if err != nil {
			return err
		}
		defer w.close()
		if !info.Recovered {
			return fmt.Errorf("directory %s held nothing to recover", dir)
		}
		line, err := json.Marshal(recovered{
			RecoverS:  w.b.st.Materialize.Seconds(),
			Replayed:  info.ReplayedBatches,
			LastBatch: w.rt.DurableStats().LastBatch,
			Verified:  w.rt.Verify() == nil,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	default:
		return fmt.Errorf("unknown child %q", kind)
	}
}
