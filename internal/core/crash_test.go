package core

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ingest"
	"repro/internal/tpcd"
	"repro/internal/wal"
)

// tpcdStream starts one update batch over the current snapshot (immutable, so
// the stream's delete candidates stay valid while refreshes run).
func tpcdStream(cat *catalog.Catalog, rt *Runtime, seed int64) *tpcd.UpdateStream {
	return tpcd.NewUpdateStream(cat, rt.Snapshots().Current().Database(), updatedRels, crashPct, seed)
}

const (
	crashSF  = 0.002
	crashPct = 5
)

// TestCrashRecoveryChild is the process the crash test SIGKILLs. It boots a
// durable runtime in MVCRASH_DIR and streams update batches forever —
// committing, refreshing and periodically spilling — until the parent kills
// it at a random instant. It is a no-op under a normal `go test` run.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv("MVCRASH_DIR")
	if dir == "" {
		t.Skip("crash child: launched by TestCrashRecovery")
	}
	plan, db, cat := buildDurablePlan(t, crashSF, crashPct)
	rt, _, err := plan.OpenDurable(db, DurableOptions{
		Dir:             dir,
		Fsync:           true,
		CommitWindow:    200 * time.Microsecond,
		SpillEvery:      3,
		KeepAllSegments: true, // keep batch 1..N replayable for the parent's reference run
		Queue:           ingest.Config{Capacity: 256, MaxBatchRows: 32, MaxBatchWait: 500 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StartIngest(); err != nil {
		t.Fatal(err)
	}
	fmt.Println("MVCRASH_READY")
	for seed := int64(1); ; seed++ {
		s := tpcdStream(cat, rt, seed)
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			if err := rt.Ingest(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.FlushIngest(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecovery SIGKILLs a streaming child at randomized points — during
// boot, mid-commit, mid-refresh, mid-spill — then recovers the directory and
// checks the recovery contract: Verify passes, and the recovered state equals
// a from-scratch replay of every durable batch (the torn suffix contributes
// nothing; the durable prefix contributes everything). CRASH_ITERS raises the
// default 3 kill points (CI runs 10).
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("MVCRASH_DIR") != "" {
		t.Skip("child process")
	}
	if testing.Short() {
		t.Skip("re-execs and kills child processes")
	}
	iters := 3
	if v := os.Getenv("CRASH_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CRASH_ITERS=%q: %v", v, err)
		}
		iters = n
	}
	rng := rand.New(rand.NewSource(42))

	for i := 0; i < iters; i++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryChild$")
		cmd.Env = append(os.Environ(), "MVCRASH_DIR="+dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		ready := make(chan struct{})
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if sc.Text() == "MVCRASH_READY" {
					close(ready)
				}
			}
		}()

		// 1 in 4 kills lands during boot (initial materialization or the
		// anchoring spill); the rest land in the streaming loop.
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(400)) * time.Millisecond)
		} else {
			select {
			case <-ready:
			case <-time.After(30 * time.Second):
				t.Fatal("child never became ready")
			}
			time.Sleep(time.Duration(rng.Intn(300)+2) * time.Millisecond)
		}
		if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
			t.Fatal(err)
		}
		cmd.Wait()

		verifyCrashRecovery(t, i, dir)
	}
}

// verifyCrashRecovery recovers dir and compares against a never-crashed
// reference built by replaying every durable batch onto the same initial
// state.
func verifyCrashRecovery(t *testing.T, iter int, dir string) {
	t.Helper()
	plan, db, _ := buildDurablePlan(t, crashSF, crashPct)
	rt, info, err := plan.OpenDurable(db, DurableOptions{
		Dir: dir, SpillEvery: -1, KeepAllSegments: true,
	})
	if err != nil {
		t.Fatalf("iter %d: recovery failed: %v", iter, err)
	}
	defer rt.CloseDurable()
	if err := rt.Verify(); err != nil {
		t.Fatalf("iter %d: recovered state fails verification: %v", iter, err)
	}

	// The recovery already repaired the torn tail, so a read-only scan sees
	// exactly the durable batch set; kills before the boot anchor completes
	// legitimately leave zero batches (and possibly no manifest at all).
	batches, err := wal.ScanBatches(dir, 0)
	if err != nil {
		t.Fatalf("iter %d: scanning repaired log: %v", iter, err)
	}
	stage := fmt.Sprintf("iter %d (%d durable batches, recovered=%v spill=%d replayed=%d)",
		iter, len(batches), info.Recovered, info.SpillBatch, info.ReplayedBatches)

	plan2, db2, _ := buildDurablePlan(t, crashSF, crashPct)
	ref, _, err := plan2.OpenDurable(db2, DurableOptions{Dir: t.TempDir(), SpillEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.CloseDurable()
	for _, b := range batches {
		if b.Seq != ref.dur.applied+1 {
			t.Fatalf("%s: durable log not contiguous: batch %d after %d", stage, b.Seq, ref.dur.applied)
		}
		if err := ref.dur.applyBatch(ref, b); err != nil {
			t.Fatalf("%s: reference replay of batch %d: %v", stage, b.Seq, err)
		}
	}
	sameState(t, stage, ref, rt)
	want := int64(len(batches))
	if got := rt.Snapshots().Current().Epoch(); got != want {
		t.Fatalf("%s: recovered epoch %d, want %d", stage, got, want)
	}
}
