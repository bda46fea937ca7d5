package core

// Sharded serving: glue between the serving Runtime and the internal/shard
// scatter-gather engine. A ShardedRuntime plans queries through the same
// server.plan as Runtime.Query, but pins them to the coordinator's
// GATE epoch — the highest epoch every shard has durably staged — lowers the
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
	// for shard i; "" entries leave that worker volatile).
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
	// cannot express (aggregates, oversized build sides) or scatter
	// transport failures. Both paths answer at the same pinned epoch.
	Fallbacks int64
}

// ShardedRuntime serves queries over a shard fleet while the underlying
// Runtime keeps refreshing. Create it with EnableShardedInProc (single
// process) or EnableShardedClients (remote workers over shard.Dial).
type ShardedRuntime struct {
	rt *Runtime
	co *shard.Coordinator

	scattered atomic.Int64
	fallbacks atomic.Int64
}

// EnableShardedInProc builds an in-process shard fleet (shard.InProc
// clients, which still round-trip every message through the wire codec) and
// installs the current snapshot on it.
func (r *Runtime) EnableShardedInProc(opts ShardOptions) (*ShardedRuntime, error) {
	asg := shard.Assignment{Partitions: opts.Partitions, Shards: opts.Shards}.Norm()
	clients := make([]shard.Client, asg.Shards)
	for i := range clients {
		dir := ""
		if i < len(opts.Dirs) {
			dir = opts.Dirs[i]
		}
		w, err := shard.NewWorker(i, asg, dir)
		if err != nil {
			return nil, err
		}
		clients[i] = shard.InProc{W: w}
	}
	return r.EnableShardedClients(asg, clients, opts)
}

// EnableShardedClients wires the runtime to pre-built shard clients (one per
// shard, e.g. shard.Dial connections to worker processes), enables serving
// with the dynamic result cache off — every reuse leaf then resolves through
// the snapshot, which is what makes plans lowerable — and installs the
// current snapshot as the first gate epoch. A runtime already serving with
// a result cache is refused: its cells follow the current epoch, not the
// gate. Adaptation composes: readers plan at the gate with the serving
// generation of the gate's snapshot.
func (r *Runtime) EnableShardedClients(asg shard.Assignment, clients []shard.Client, opts ShardOptions) (*ShardedRuntime, error) {
	r.EnableServing(ServeOptions{CacheBudget: -1, RetainHistory: opts.RetainHistory})
	s := r.serverIfEnabled()
	s.mu.Lock()
	b := s.latest().mgr.Budget
	s.mu.Unlock()
	if b > 0 {
		return nil, fmt.Errorf("core: cannot shard a runtime serving with a %.0f-byte result cache; enable serving with CacheBudget -1 first", b)
	}
	if !opts.RetainHistory {
		// Readers pin the gate while the writer publishes ahead of it: one
		// epoch per Refresh (plus one for an adaptation install at its entry)
		// before the next install moves the gate. Keep the gate, that much
		// lead and slack so At(gate) always resolves.
		r.Mt.Snap.KeepRecent(4)
	}
	co, err := shard.NewCoordinator(asg, clients)
	if err != nil {
		return nil, err
	}
	sr := &ShardedRuntime{rt: r, co: co}
	if err := sr.Install(); err != nil {
		return nil, err
	}
	return sr, nil
}

// Runtime returns the underlying serving runtime.
func (sr *ShardedRuntime) Runtime() *Runtime { return sr.rt }

// Coordinator exposes the shard coordinator (tests drive Rejoin and the
// install hook through it).
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

// Rejoin drives a restarted worker's recovery against the gate snapshot.
func (sr *ShardedRuntime) Rejoin(i int) error {
	gate := sr.co.Gate()
	var snap *storage.Snapshot
	if gate >= 0 {
		snap = sr.rt.Mt.Snap.At(gate)
	}
	return sr.co.Rejoin(i, snap)
}

// Close shuts down the shard clients (workers owned by InProc close their
// stage logs).
func (sr *ShardedRuntime) Close() error { return sr.co.Close() }

// Query plans sql with the serving generation of the gate epoch, pinned to
// that epoch, and answers it by scatter-gather (or the local fallback). Safe
// for any number of goroutines concurrently with one writer running
// sr.Refresh.
func (sr *ShardedRuntime) Query(sql string) (*QueryResult, error) {
	r := sr.rt
	gate := sr.co.Gate()
	if gate < 0 {
		// Before the first install there is no staged fleet state yet.
		sr.fallbacks.Add(1)
		return r.Query(sql)
	}
	snap := r.Mt.Snap.At(gate)
	if snap == nil {
		return nil, fmt.Errorf("core: gate epoch %d not retained by the snapshot store", gate)
	}
	// EnableShardedClients refused a live result cache, so every reuse leaf
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

	if req, ok := shard.Lower(res.Plan, env); ok {
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
