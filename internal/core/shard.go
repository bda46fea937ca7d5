package core

// Sharded serving: glue between the serving Runtime and the internal/shard
// scatter-gather engine. A ShardedRuntime plans queries through the same
// server.plan as Runtime.Query, but pins them to the coordinator's
// GATE epoch — the highest epoch every shard has staged — lowers the
// plan to a scatter pipeline, and merges the shard partials in fixed
// partition order, so answers are byte-identical to single-node serving at
// that epoch. Plans the lowering cannot express run coordinator-local at the
// same pinned epoch (a correctness-neutral fallback, counted in Stats).

import (
	"fmt"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// ShardOptions configures EnableShardedInProc.
type ShardOptions struct {
	// Shards is the worker count (min 1).
	Shards int
	// Partitions is the hash-partition universe sliced across shards; 0
	// defaults to the shard count (Assignment.Norm).
	Partitions int
	// Dirs, when non-empty, gives each worker a stage-log directory (index i
	// for shard i; "" entries leave that worker without a log). A worker
	// truncates the log it finds there and never reads it back.
	Dirs []string
	// RetainHistory mirrors ServeOptions.RetainHistory. When false the
	// snapshot store keeps a bounded recent window instead, sized so readers
	// can still resolve the gate epoch while a refresh cycle publishes ahead
	// of it.
	RetainHistory bool
}

// ShardStats counts sharded serving activity.
type ShardStats struct {
	// Scattered is the number of queries answered by shard scatter-gather.
	Scattered int64
	// Fallbacks is the number answered coordinator-local: plans the lowering
	// cannot express (aggregates, oversized build sides), plans that lower
	// to no stage (a bare read of one stored view or base table, which the
	// pinned snapshot already holds), and scatter failures. All of them
	// answer at the same pinned epoch.
	Fallbacks int64
}

// ShardedRuntime serves queries over an in-process shard fleet while the
// underlying Runtime keeps refreshing. Create it with EnableShardedInProc.
type ShardedRuntime struct {
	rt *Runtime
	co *shard.Coordinator

	scattered atomic.Int64
	fallbacks atomic.Int64
}

// EnableShardedInProc builds an in-process shard fleet (shard.InProc
// clients, which still round-trip every message through the wire codec),
// enables serving with the dynamic result cache off — every reuse leaf then
// resolves through the snapshot, which is what makes plans lowerable — and
// installs the current snapshot as the first gate epoch. A runtime already
// serving with a result cache is refused: its cells follow the current
// epoch, not the gate.
func (r *Runtime) EnableShardedInProc(opts ShardOptions) (*ShardedRuntime, error) {
	r.EnableServing(ServeOptions{CacheBudget: -1, RetainHistory: opts.RetainHistory})
	s := r.serverIfEnabled()
	s.mu.Lock()
	b := s.fe.mgr.Budget
	s.mu.Unlock()
	if b > 0 {
		return nil, fmt.Errorf("core: cannot shard a runtime serving with a %.0f-byte result cache; enable serving with CacheBudget -1 first", b)
	}
	if !opts.RetainHistory {
		// Readers pin the gate while the writer publishes ahead of it: one
		// epoch per Refresh before the next install moves the gate. Keep the
		// gate, that lead and slack so At(gate) always resolves.
		r.Mt.Snap.KeepRecent(4)
	}
	asg := shard.Assignment{Partitions: opts.Partitions, Shards: opts.Shards}.Norm()
	var clients []shard.Client
	// fail closes the workers opened so far, so a fleet that never serves
	// leaves no stage log open.
	fail := func(err error) (*ShardedRuntime, error) {
		for _, cl := range clients {
			cl.Close()
		}
		return nil, err
	}
	for i := 0; i < asg.Shards; i++ {
		dir := ""
		if i < len(opts.Dirs) {
			dir = opts.Dirs[i]
		}
		w, err := shard.NewWorker(i, asg, dir)
		if err != nil {
			return fail(err)
		}
		clients = append(clients, shard.InProc{W: w})
	}
	co, err := shard.NewCoordinator(asg, clients)
	if err != nil {
		return fail(err)
	}
	sr := &ShardedRuntime{rt: r, co: co}
	if err := sr.Install(); err != nil {
		return fail(err)
	}
	return sr, nil
}

// Runtime returns the underlying serving runtime.
func (sr *ShardedRuntime) Runtime() *Runtime { return sr.rt }

// Coordinator exposes the shard coordinator (its gate and assignment).
func (sr *ShardedRuntime) Coordinator() *shard.Coordinator { return sr.co }

// Stats returns the scatter/fallback counters.
func (sr *ShardedRuntime) Stats() ShardStats {
	return ShardStats{Scattered: sr.scattered.Load(), Fallbacks: sr.fallbacks.Load()}
}

// Install runs the two-phase install of the current snapshot: stage on every
// shard, then flip the gate. Call it after each Refresh (or use
// sr.Refresh).
func (sr *ShardedRuntime) Install() error {
	return sr.co.Install(sr.rt.Mt.Snap.Current())
}

// Refresh propagates pending deltas and installs the resulting epoch on the
// fleet.
func (sr *ShardedRuntime) Refresh() error {
	sr.rt.Refresh()
	return sr.Install()
}

// Close shuts down the shard clients (workers owned by InProc close their
// stage logs).
func (sr *ShardedRuntime) Close() error { return sr.co.Close() }

// Query plans sql with the runtime's serving front end, pinned to the gate
// epoch, and answers it by scatter-gather (or the local fallback). Safe
// for any number of goroutines concurrently with one writer running
// sr.Refresh.
func (sr *ShardedRuntime) Query(sql string) (*QueryResult, error) {
	r := sr.rt
	// EnableShardedInProc returns only after the first install, so the gate
	// is an installed epoch.
	gate := sr.co.Gate()
	snap := r.Mt.Snap.At(gate)
	if snap == nil {
		return nil, fmt.Errorf("core: gate epoch %d not retained by the snapshot store", gate)
	}
	// EnableShardedInProc refused a live result cache, so every reuse leaf
	// of the plan resolved through the pinned snapshot.
	res, ex, toSys, err := r.server().plan(sql, snap, nil)
	if err != nil {
		return nil, err
	}
	env := shard.LowerEnv{
		Leaf: func(p *volcano.PlanNode) (shard.LeafRef, algebra.Schema, bool) {
			e := p.E
			if e.IsTable {
				rel := snap.Relation(e.Tables[0])
				if rel == nil {
					return shard.LeafRef{}, nil, false
				}
				return shard.LeafRef{Rel: e.Tables[0]}, rel.Schema(), true
			}
			if sysID, ok := toSys[e.ID]; ok {
				if m := snap.Mat(sysID); m != nil {
					return shard.LeafRef{Mat: true, ID: int32(sysID)}, m.Schema(), true
				}
			}
			return shard.LeafRef{}, nil, false
		},
		Exec: func(p *volcano.PlanNode) *storage.Relation {
			if p.Access == volcano.Probe {
				return ex.Stored(p.E)
			}
			return ex.Run(p)
		},
		MaxBroadcast: exec.BroadcastMax(),
	}

	// A plan that lowers to no stage is a bare read of one stored relation,
	// which the pinned snapshot answers without a round trip to the fleet.
	if req, ok := shard.Lower(res.Plan, env); ok && len(req.Stages) > 0 {
		req.Epoch = gate
		if got, err := sr.co.Scatter(req, res.Plan.E.Schema); err == nil {
			res.Rows = got
			sr.scattered.Add(1)
		}
	}
	if res.Rows == nil {
		sr.fallbacks.Add(1)
		res.Rows = ex.Run(res.Plan)
	}
	return res, nil
}
