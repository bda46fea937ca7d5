package core

// Shard fault injection: SIGKILL a worker process mid-two-phase-install and
// check the install contract — no reader ever observes a partial epoch
// (every answer multiset-equals the from-scratch recomputation at the epoch
// it claims), the gate never advances past an epoch a shard has not durably
// staged, and a restarted worker rejoins at its staged epoch by stage-log
// recovery. Extends the PR 6 crash-recovery shape (re-exec the test binary,
// kill at deterministic and randomized instants) one level up the stack.

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// TestShardWorkerChild is the worker process the kill test targets: a shard
// worker with a durable stage log, serving the rpc transport until killed.
// No-op under a normal `go test` run.
func TestShardWorkerChild(t *testing.T) {
	dir := os.Getenv("MVSHARD_DIR")
	if dir == "" {
		t.Skip("shard worker child: launched by TestShardKillDuringInstall")
	}
	idx, _ := strconv.Atoi(os.Getenv("MVSHARD_SHARD"))
	shards, _ := strconv.Atoi(os.Getenv("MVSHARD_SHARDS"))
	parts, _ := strconv.Atoi(os.Getenv("MVSHARD_PARTS"))
	w, err := shard.NewWorker(idx, shard.Assignment{Partitions: parts, Shards: shards}, dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("MVSHARD_READY %s\n", l.Addr())
	if err := shard.Serve(l, w); err != nil {
		t.Fatal(err)
	}
}

// shardChild manages one worker child process.
type shardChild struct {
	cmd  *exec.Cmd
	addr string
}

func startShardChild(t *testing.T, dir string, idx int, asg shard.Assignment) *shardChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestShardWorkerChild$")
	cmd.Env = append(os.Environ(),
		"MVSHARD_DIR="+dir,
		fmt.Sprintf("MVSHARD_SHARD=%d", idx),
		fmt.Sprintf("MVSHARD_SHARDS=%d", asg.Shards),
		fmt.Sprintf("MVSHARD_PARTS=%d", asg.Partitions),
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "MVSHARD_READY "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &shardChild{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("shard worker child never became ready")
		return nil
	}
}

func (c *shardChild) kill() {
	c.cmd.Process.Kill() // SIGKILL: no cleanup runs
	c.cmd.Wait()
}

func TestShardKillDuringInstall(t *testing.T) {
	if os.Getenv("MVSHARD_DIR") != "" {
		t.Skip("child process")
	}
	if testing.Short() {
		t.Skip("re-execs and kills child processes")
	}
	iters := 2
	if v := os.Getenv("SHARD_CRASH_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("SHARD_CRASH_ITERS=%q: %v", v, err)
		}
		iters = n
	}
	rng := rand.New(rand.NewSource(47))
	asg := shard.Assignment{Partitions: 4, Shards: 2}.Norm()
	dirs := []string{t.TempDir(), t.TempDir()}

	children := make([]*shardChild, asg.Shards)
	clients := make([]shard.Client, asg.Shards)
	for i := range children {
		children[i] = startShardChild(t, dirs[i], i, asg)
		cl, err := shard.Dial(children[i].addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	defer func() {
		for _, c := range children {
			if c != nil {
				c.kill()
			}
		}
	}()

	rt := buildServingRuntime(t, 0.002, 5)
	cat := rt.Plan.System.Cat
	sr, err := rt.EnableShardedClients(asg, clients, ShardOptions{RetainHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	co := sr.Coordinator()

	// Concurrent readers record every answer; all are checked against their
	// epoch's recomputation at the end.
	sql := serveQueries[0]
	type obs struct {
		epoch int64
		rows  *storage.Relation
	}
	var obsMu sync.Mutex
	var seen []obs
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sr.Query(sql)
				if err != nil {
					t.Error(err)
					return
				}
				obsMu.Lock()
				seen = append(seen, obs{res.Epoch, res.Rows})
				obsMu.Unlock()
			}
		}()
	}

	restart := func(victim int) {
		t.Helper()
		children[victim] = startShardChild(t, dirs[victim], victim, asg)
		cl, err := shard.Dial(children[victim].addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[victim] = cl
		co.ReplaceClient(victim, cl)
		if err := sr.Rejoin(victim); err != nil {
			t.Fatalf("rejoin shard %d: %v", victim, err)
		}
	}

	// Leg 1 (deterministic): kill shard 0 in the window between the last
	// stage ack and the gate flip. The install must still complete — the
	// epoch is durably staged everywhere — and the restarted worker must
	// report that epoch as staged purely from its log.
	co.TestHookAfterStage = func(epoch int64) {
		children[0].kill()
	}
	tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, 201)
	rt.Refresh()
	if err := sr.Install(); err != nil {
		t.Fatalf("install with post-stage kill: %v", err)
	}
	co.TestHookAfterStage = nil
	gate := co.Gate()
	if cur := rt.Snapshots().Current().Epoch(); gate != cur {
		t.Fatalf("gate %d after post-stage kill, want %d", gate, cur)
	}
	children[0] = startShardChild(t, dirs[0], 0, asg)
	cl0, err := shard.Dial(children[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl0.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if h.Staged != gate {
		t.Fatalf("restarted worker staged epoch %d, want gate %d (stage-log recovery)", h.Staged, gate)
	}
	clients[0] = cl0
	co.ReplaceClient(0, cl0)
	if err := sr.Rejoin(0); err != nil {
		t.Fatal(err)
	}

	// Legs 2..N (randomized): kill a random shard at a random instant around
	// an install; the gate must never pass an epoch that shard has not
	// staged, and restart+rejoin+retry must converge.
	for iter := 0; iter < iters; iter++ {
		victim := rng.Intn(asg.Shards)
		delay := time.Duration(rng.Intn(20)) * time.Millisecond
		var once sync.Once
		timer := time.AfterFunc(delay, func() { once.Do(children[victim].kill) })
		tpcd.LogUniformUpdates(cat, rt.Ex.DB, updatedRels, 5, int64(300+iter))
		rt.Refresh()
		installErr := sr.Install()
		timer.Stop()
		once.Do(children[victim].kill)

		restart(victim)
		if installErr != nil {
			if err := sr.Install(); err != nil {
				t.Fatalf("iter %d: retried install: %v", iter, err)
			}
		}
		if gate, cur := co.Gate(), rt.Snapshots().Current().Epoch(); gate != cur {
			t.Fatalf("iter %d: gate %d after recovery, want %d", iter, gate, cur)
		}
	}
	close(stop)
	wg.Wait()

	// Post-recovery scatter must work (not just the local fallback).
	before := sr.Stats().Scattered
	if _, err := sr.Query(sql); err != nil {
		t.Fatal(err)
	}
	if sr.Stats().Scattered == before {
		t.Fatal("query after recovery did not scatter")
	}

	// Every recorded answer must equal its epoch's from-scratch
	// recomputation: no torn epochs, ever.
	s := rt.serverIfEnabled()
	s.mu.Lock()
	root := s.latest().roots[sql]
	s.mu.Unlock()
	if root == nil {
		t.Fatal("query root never memoized")
	}
	checked := map[int64]*storage.Relation{}
	for _, o := range seen {
		want := checked[o.epoch]
		if want == nil {
			snap := rt.Snapshots().At(o.epoch)
			if snap == nil {
				t.Fatalf("answer claims unretained epoch %d", o.epoch)
			}
			want = recomputeAt(s.latest().dag, root, snap)
			checked[o.epoch] = want
		}
		if !storage.EqualMultiset(o.rows, want) {
			t.Fatalf("answer at epoch %d does not match recomputation (%d vs %d rows)",
				o.epoch, o.rows.Len(), want.Len())
		}
	}
	if len(seen) == 0 {
		t.Fatal("readers recorded no answers")
	}
}
