package shard

// Coordinator: drives the two-phase epoch install over a set of shard
// clients and gathers scattered partials back into single-node row order.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// Client is the transport face of one worker shard. Implementations must be
// safe for concurrent use; InProc and the net/rpc client both qualify.
type Client interface {
	Hello() (*Hello, error)
	Stage(req *StageReq) error
	Commit(epoch int64) error
	Scatter(req *ScatterReq) (*Partial, error)
	Close() error
}

// Coordinator owns the serving gate and the staged-baseline bookkeeping of
// the two-phase install. Install/Rejoin serialize on an internal mutex;
// Scatter and Gate are lock-free against the atomic gate.
type Coordinator struct {
	asg Assignment
	// cmu guards only the client table, so scatters (readers) never wait
	// behind a full install round for a snapshot of it.
	cmu     sync.RWMutex
	clients []Client

	// gate is the highest fully installed epoch (-1 before the first
	// install). It flips with a release store only after EVERY shard has
	// durably staged that epoch; reader acquire loads therefore always name
	// an epoch whose state exists on all shards.
	gate atomic.Int64

	mu sync.Mutex
	// prevRels/prevMats are the relation versions of the last epoch every
	// shard acknowledged — the pointer-diff baseline. They advance only
	// after an install round succeeds on all shards, so a failed round
	// re-diffs against the old baseline and the retried delta is a superset
	// of anything a straggler missed.
	prevRels  map[string]*storage.Relation
	prevMats  map[int]*storage.Relation
	prevEpoch int64
	// lastReqs remembers each shard's most recent StageReq for cheap rejoin
	// (resend beats re-bootstrapping when the restarted worker only missed
	// the latest delta).
	lastReqs []*StageReq

	// TestHookAfterStage, when set, runs after every shard has staged an
	// epoch and before the gate flips — the window fault-injection tests
	// kill workers in.
	TestHookAfterStage func(epoch int64)
}

// NewCoordinator wires a coordinator to one client per shard of the
// assignment. Every client's Hello must name its slot, the shard count and
// the partition count, as at Rejoin: a fleet built for another assignment
// is refused before it serves.
func NewCoordinator(asg Assignment, clients []Client) (*Coordinator, error) {
	asg = asg.Norm()
	if len(clients) != asg.Shards {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), asg.Shards)
	}
	for i, cl := range clients {
		if _, err := hello(cl, i, asg, "connect"); err != nil {
			return nil, err
		}
	}
	c := &Coordinator{
		asg:       asg,
		clients:   append([]Client(nil), clients...),
		prevEpoch: -1,
		lastReqs:  make([]*StageReq, len(clients)),
	}
	c.gate.Store(-1)
	return c, nil
}

// Assignment returns the coordinator's normalized assignment.
func (c *Coordinator) Assignment() Assignment { return c.asg }

// Gate returns the highest fully installed epoch (-1 before the first
// install). Readers pin it, plan at the matching snapshot, and scatter with
// it.
func (c *Coordinator) Gate() int64 { return c.gate.Load() }

// Install runs the two-phase install of snap's epoch: pointer-diff against
// the staged baseline, stage the per-shard slices everywhere, and only then
// flip the gate. On any staging error the gate and baseline are left
// untouched — a later Install (or Rejoin) retries with a superset delta and
// workers deduplicate by epoch. Commit messages after the flip are advisory
// pruning; their errors are ignored.
func (c *Coordinator) Install(snap *storage.Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := snap.Epoch()
	if epoch <= c.gate.Load() {
		return nil
	}
	base := c.prevRels == nil

	changedRels := make(map[string]*storage.Relation)
	for _, name := range snap.Database().Names() {
		rel := snap.Relation(name)
		if rel == nil {
			continue
		}
		if base || c.prevRels[name] != rel {
			changedRels[name] = rel
		}
	}
	mats := snap.Mats()
	changedMats := make(map[int]*storage.Relation)
	for id, rel := range mats {
		if base || c.prevMats[id] != rel {
			changedMats[id] = rel
		}
	}
	var drops []int32
	for id := range c.prevMats {
		if _, ok := mats[id]; !ok {
			drops = append(drops, int32(id))
		}
	}

	clients := c.snapshotClients()
	reqs := make([]*StageReq, len(clients))
	for s, rg := range c.asg.Ranges() {
		req := &StageReq{
			Epoch: epoch,
			From:  c.prevEpoch,
			Base:  base,
			Drops: append([]int32(nil), drops...),
			Rels:  make(map[string]Slice, len(changedRels)),
			Mats:  make(map[int32]Slice, len(changedMats)),
		}
		if base {
			req.From = -1
		}
		for name, rel := range changedRels {
			req.Rels[name] = SliceOf(rel, c.asg, rg[0], rg[1])
		}
		for id, rel := range changedMats {
			req.Mats[int32(id)] = SliceOf(rel, c.asg, rg[0], rg[1])
		}
		reqs[s] = req
	}

	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for s, cl := range clients {
		wg.Add(1)
		go func(s int, cl Client) {
			defer wg.Done()
			errs[s] = cl.Stage(reqs[s])
		}(s, cl)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: stage epoch %d on shard %d: %w", epoch, s, err)
		}
	}

	// All shards hold epoch durably: advance the baseline, then flip.
	c.prevRels = make(map[string]*storage.Relation, len(snap.Database().Names()))
	for _, name := range snap.Database().Names() {
		if rel := snap.Relation(name); rel != nil {
			c.prevRels[name] = rel
		}
	}
	c.prevMats = mats
	c.prevEpoch = epoch
	copy(c.lastReqs, reqs)
	if c.TestHookAfterStage != nil {
		c.TestHookAfterStage(epoch)
	}
	c.gate.Store(epoch)
	for _, cl := range clients {
		cl.Commit(epoch)
	}
	return nil
}

// Scatter fans req out to every shard and merges the partials by ascending
// scatter-leaf index into a relation with the given schema — the single-node
// row order. Every partial must come back at req.Epoch.
func (c *Coordinator) Scatter(req *ScatterReq, schema algebra.Schema) (*storage.Relation, error) {
	clients := c.snapshotClients()
	parts := make([]*Partial, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for s, cl := range clients {
		wg.Add(1)
		go func(s int, cl Client) {
			defer wg.Done()
			parts[s], errs[s] = cl.Scatter(req)
		}(s, cl)
	}
	wg.Wait()
	total := 0
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: scatter to shard %d: %w", s, err)
		}
		if parts[s].Epoch != req.Epoch {
			return nil, fmt.Errorf("shard: shard %d answered epoch %d for scatter at %d", s, parts[s].Epoch, req.Epoch)
		}
		total += len(parts[s].Rows)
	}
	return mergePartials(parts, schema, total), nil
}

// mergePartials is the gather: an S-way merge on the ascending Ord streams.
// Equal Ord values never cross shards (each leaf row lives on exactly one
// shard), so draining the full run of the minimal head preserves the
// single-node emission order within one probe row too.
func mergePartials(parts []*Partial, schema algebra.Schema, total int) *storage.Relation {
	out := storage.NewRelation(schema)
	heads := make([]int, len(parts))
	for {
		min, minOrd := -1, int32(0)
		for s, p := range parts {
			if heads[s] >= len(p.Rows) {
				continue
			}
			if o := p.Ord[heads[s]]; min == -1 || o < minOrd {
				min, minOrd = s, o
			}
		}
		if min == -1 {
			return out
		}
		p := parts[min]
		for heads[min] < len(p.Rows) && p.Ord[heads[min]] == minOrd {
			out.Append(p.Rows[heads[min]])
			heads[min]++
		}
	}
}

// Rejoin brings the client at shard index i back into the install: validate
// its assignment, then — in order of preference — commit it directly if it
// already holds the gate epoch, resend the one delta it missed, or
// re-bootstrap it with a full Base stage built from snap (which must be the
// gate epoch's snapshot).
func (c *Coordinator) Rejoin(i int, snap *storage.Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cmu.RLock()
	cl := c.clients[i]
	c.cmu.RUnlock()
	h, err := hello(cl, i, c.asg, "rejoin")
	if err != nil {
		return err
	}
	gate := c.gate.Load()
	if gate < 0 {
		return nil
	}
	switch {
	case h.Staged >= gate:
		// The kill landed after staging: the state is already durable.
	case c.lastReqs[i] != nil && c.lastReqs[i].Epoch == gate && h.Staged >= c.lastReqs[i].From:
		if err := cl.Stage(c.lastReqs[i]); err != nil {
			return fmt.Errorf("shard: rejoin restage: %w", err)
		}
	default:
		if snap == nil || snap.Epoch() != gate {
			return fmt.Errorf("shard: rejoin of shard %d needs the gate snapshot (epoch %d)", i, gate)
		}
		rg := c.asg.Ranges()[i]
		req := &StageReq{
			Epoch: gate,
			From:  -1,
			Base:  true,
			Rels:  make(map[string]Slice),
			Mats:  make(map[int32]Slice),
		}
		for _, name := range snap.Database().Names() {
			if rel := snap.Relation(name); rel != nil {
				req.Rels[name] = SliceOf(rel, c.asg, rg[0], rg[1])
			}
		}
		for id, rel := range snap.Mats() {
			req.Mats[int32(id)] = SliceOf(rel, c.asg, rg[0], rg[1])
		}
		if err := cl.Stage(req); err != nil {
			return fmt.Errorf("shard: rejoin bootstrap: %w", err)
		}
		c.lastReqs[i] = req
	}
	cl.Commit(gate)
	return nil
}

// hello asks the worker behind cl for its assignment and refuses one that
// is not shard i of asg; step names the caller in the error.
func hello(cl Client, i int, asg Assignment, step string) (*Hello, error) {
	h, err := cl.Hello()
	if err != nil {
		return nil, fmt.Errorf("shard: %s hello: %w", step, err)
	}
	if h.Shard != i || h.Shards != asg.Shards || h.Partitions != asg.Partitions {
		return nil, fmt.Errorf("shard: %s assignment mismatch: worker %d/%d@%d vs coordinator %d/%d@%d",
			step, h.Shard, h.Shards, h.Partitions, i, asg.Shards, asg.Partitions)
	}
	return h, nil
}

// snapshotClients copies the client table under its own lock.
func (c *Coordinator) snapshotClients() []Client {
	c.cmu.RLock()
	defer c.cmu.RUnlock()
	return append([]Client(nil), c.clients...)
}

// ReplaceClient swaps shard i's client (a restarted worker's fresh
// connection) without disturbing the others.
func (c *Coordinator) ReplaceClient(i int, cl Client) {
	c.cmu.Lock()
	c.clients[i] = cl
	c.cmu.Unlock()
}

// Close closes every client.
func (c *Coordinator) Close() error {
	var first error
	for _, cl := range c.snapshotClients() {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
