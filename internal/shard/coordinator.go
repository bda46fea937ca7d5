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
// safe for concurrent use; InProc is the one the engine builds.
type Client interface {
	Hello() (*Hello, error)
	Stage(req *StageReq) error
	Commit(epoch int64) error
	Scatter(req *ScatterReq) (*Partial, error)
	Close() error
}

// Coordinator owns the serving gate and the staged-baseline bookkeeping of
// the two-phase install. Installs serialize on an internal mutex; Scatter
// and Gate are lock-free against the atomic gate and the client table, which
// is fixed at construction.
type Coordinator struct {
	asg     Assignment
	clients []Client

	// gate is the highest fully installed epoch (-1 before the first
	// install). It flips with a release store only after EVERY shard has
	// staged that epoch; reader acquire loads therefore always name
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
}

// NewCoordinator wires a coordinator to one client per shard of the
// assignment. Every client's Hello must name its slot, the shard count and
// the partition count: a fleet built for another assignment is refused
// before it serves.
func NewCoordinator(asg Assignment, clients []Client) (*Coordinator, error) {
	asg = asg.Norm()
	if len(clients) != asg.Shards {
		return nil, fmt.Errorf("shard: %d clients for %d shards", len(clients), asg.Shards)
	}
	for i, cl := range clients {
		if err := checkHello(cl, i, asg); err != nil {
			return nil, err
		}
	}
	c := &Coordinator{
		asg:       asg,
		clients:   append([]Client(nil), clients...),
		prevEpoch: -1,
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
// untouched — a later Install retries with a superset delta and
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

	reqs := make([]*StageReq, len(c.clients))
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

	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for s, cl := range c.clients {
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

	// All shards hold the epoch: advance the baseline, then flip.
	c.prevRels = make(map[string]*storage.Relation, len(snap.Database().Names()))
	for _, name := range snap.Database().Names() {
		if rel := snap.Relation(name); rel != nil {
			c.prevRels[name] = rel
		}
	}
	c.prevMats = mats
	c.prevEpoch = epoch
	c.gate.Store(epoch)
	for _, cl := range c.clients {
		cl.Commit(epoch)
	}
	return nil
}

// Scatter fans req out to every shard and merges the partials by ascending
// scatter-leaf index into a relation with the given schema — the single-node
// row order. Every partial must come back at req.Epoch.
func (c *Coordinator) Scatter(req *ScatterReq, schema algebra.Schema) (*storage.Relation, error) {
	parts := make([]*Partial, len(c.clients))
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for s, cl := range c.clients {
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

// checkHello asks the worker behind cl for its assignment and refuses one
// that is not shard i of asg.
func checkHello(cl Client, i int, asg Assignment) error {
	h, err := cl.Hello()
	if err != nil {
		return fmt.Errorf("shard: connect hello: %w", err)
	}
	if h.Shard != i || h.Shards != asg.Shards || h.Partitions != asg.Partitions {
		return fmt.Errorf("shard: connect assignment mismatch: worker %d/%d@%d vs coordinator %d/%d@%d",
			h.Shard, h.Shards, h.Partitions, i, asg.Shards, asg.Partitions)
	}
	return nil
}

// Close closes every client.
func (c *Coordinator) Close() error {
	var first error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
