package shard

// Worker: owns one contiguous partition range, holds a bounded window of
// staged epoch states, executes scatter pipelines against them, and — when
// given a directory — appends every stage request to a CRC-framed stage log
// and fsyncs it before acknowledging. Nothing reads the log back: a worker
// lives and dies with the process that owns its fleet.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/wal"
)

// keepStates bounds the in-memory epoch window per worker. The coordinator
// commits (prunes) after every install, so the window only has to cover
// epochs between two installs plus in-flight readers.
const keepStates = 8

// stageLogName is the per-worker stage log file.
const stageLogName = "stage.log"

// state is one staged epoch's image of the shard's slices. States are
// immutable once entered into the window: applying a delta builds fresh maps
// (sharing unchanged Slice values), so scatters read them without locks. The
// hash cache is the one mutable attachment: per-leaf key-column hashes built
// lazily by the first join that probes them and reused — monotone and
// guarded by hmu, so it never compromises the immutability the scatter path
// relies on.
type state struct {
	rels map[string]Slice
	mats map[int32]Slice

	hmu    sync.Mutex
	hcache map[hashKey][]uint64
}

// hashKey identifies one cached hash column set: the scatter leaf plus the
// leaf-relative key columns, rendered as a canonical string.
type hashKey struct {
	mat  bool
	id   int32
	rel  string
	cols string
}

// hashesFor returns the leaf's per-row hashes over cols, adopting a hash
// column the coordinator shipped inside the slice when one matches, and
// otherwise building on first use (one HashCols per leaf row per distinct
// key-column set per epoch); built reports whether this call paid for a
// build — adopting shipped hashes is free and does not count. Returns nil
// when any row is too narrow for cols — ragged slices are only reachable
// from the wire, and the caller then falls back to the width-checked
// per-row path.
func (st *state) hashesFor(key hashKey, leaf Slice, cols []int) (hashes []uint64, built bool) {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	if h, ok := st.hcache[key]; ok {
		return h, false
	}
	for k, hc := range leaf.HashCols {
		if k >= len(leaf.Hashes) || len(leaf.Hashes[k]) != len(leaf.Rows) {
			continue // malformed wire input: lengths must line up
		}
		if !sameCols(hc, cols) {
			continue
		}
		if st.hcache == nil {
			st.hcache = make(map[hashKey][]uint64)
		}
		st.hcache[key] = leaf.Hashes[k]
		return leaf.Hashes[k], false
	}
	need := maxIdx(cols)
	for _, t := range leaf.Rows {
		if need >= len(t) {
			return nil, false
		}
	}
	h := make([]uint64, len(leaf.Rows))
	for i, t := range leaf.Rows {
		h[i] = t.HashCols(cols)
	}
	if st.hcache == nil {
		st.hcache = make(map[hashKey][]uint64)
	}
	st.hcache[key] = h
	return h, true
}

// Worker executes one shard. Methods are safe for concurrent use.
type Worker struct {
	shard int
	asg   Assignment

	// Scatter hash instrumentation (see HashStats).
	probeHashed atomic.Int64
	cacheBuilt  atomic.Int64

	mu        sync.Mutex
	closed    bool
	logF      *os.File
	states    map[int64]*state
	order     []int64 // staged epochs, ascending
	staged    int64   // highest staged epoch, -1 none
	committed int64   // highest commit seen, -1 none
}

// NewWorker creates a worker for shard index `shard` of the assignment. A
// non-empty dir enables the stage log; a log already there is truncated, so
// every worker starts with nothing staged.
func NewWorker(shard int, asg Assignment, dir string) (*Worker, error) {
	asg = asg.Norm()
	if shard < 0 || shard >= asg.Shards {
		return nil, fmt.Errorf("shard: worker index %d out of range [0,%d)", shard, asg.Shards)
	}
	w := &Worker{
		shard:     shard,
		asg:       asg,
		states:    make(map[int64]*state),
		staged:    -1,
		committed: -1,
	}
	if dir == "" {
		return w, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, stageLogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w.logF = f
	return w, nil
}

// Hello reports the worker's identity and staged progress.
func (w *Worker) Hello() *Hello {
	w.mu.Lock()
	defer w.mu.Unlock()
	return &Hello{
		Shard:      w.shard,
		Shards:     w.asg.Shards,
		Partitions: w.asg.Partitions,
		Staged:     w.staged,
		Committed:  w.committed,
	}
}

// Stage installs one epoch: the request is framed, appended to the stage log
// and fsynced BEFORE the in-memory window is updated and the call
// acknowledges — the staging half of the two-phase install. A Base request
// first empties the log, so it restarts at one frame. Re-staging an epoch at
// or below the staged watermark is an idempotent no-op.
func (w *Worker) Stage(req *StageReq) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("shard %d: worker closed", w.shard)
	}
	if req.Epoch <= w.staged {
		return nil
	}
	if !req.Base && w.staged < req.From {
		return fmt.Errorf("shard %d: delta from epoch %d but staged only %d", w.shard, req.From, w.staged)
	}
	if w.logF != nil {
		if req.Base {
			if err := w.logF.Truncate(0); err != nil {
				return err
			}
		}
		if _, err := w.logF.Write(wal.AppendFrame(nil, EncodeStage(req))); err != nil {
			return err
		}
		if err := w.logF.Sync(); err != nil {
			return err
		}
	}
	w.applyLocked(req)
	return nil
}

// applyLocked enters req's epoch into the state window.
func (w *Worker) applyLocked(req *StageReq) {
	var base *state
	if req.Base || len(w.order) == 0 {
		base = &state{rels: map[string]Slice{}, mats: map[int32]Slice{}}
	} else {
		base = w.states[w.order[len(w.order)-1]]
	}
	st := &state{
		rels: make(map[string]Slice, len(base.rels)+len(req.Rels)),
		mats: make(map[int32]Slice, len(base.mats)+len(req.Mats)),
	}
	for k, v := range base.rels {
		st.rels[k] = v
	}
	for k, v := range base.mats {
		st.mats[k] = v
	}
	for _, id := range req.Drops {
		delete(st.mats, id)
	}
	for k, v := range req.Rels {
		st.rels[k] = v
	}
	for k, v := range req.Mats {
		st.mats[k] = v
	}
	w.states[req.Epoch] = st
	w.order = append(w.order, req.Epoch)
	w.staged = req.Epoch
	for len(w.order) > keepStates {
		delete(w.states, w.order[0])
		w.order = w.order[1:]
	}
}

// Commit records the coordinator's gate flip and prunes states below it.
// Advisory: correctness never depends on a commit arriving (the staged
// window carries the install).
func (w *Worker) Commit(epoch int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch > w.committed {
		w.committed = epoch
	}
	keep := w.order[:0]
	for _, e := range w.order {
		if e >= epoch {
			keep = append(keep, e)
		} else {
			delete(w.states, e)
		}
	}
	w.order = keep
	return nil
}

// Close releases the stage log handle; further Stage and Scatter calls fail.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.logF != nil {
		err := w.logF.Close()
		w.logF = nil
		return err
	}
	return nil
}

// Scatter runs the request's pipeline over this shard's slice of the leaf at
// the requested (staged) epoch. States are immutable, so execution happens
// outside the lock.
func (w *Worker) Scatter(req *ScatterReq) (*Partial, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, fmt.Errorf("shard %d: worker closed", w.shard)
	}
	st := w.states[req.Epoch]
	window := append([]int64(nil), w.order...)
	w.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("shard %d: epoch %d not staged (window %v)", w.shard, req.Epoch, window)
	}
	var leaf Slice
	var ok bool
	if req.Leaf.Mat {
		leaf, ok = st.mats[req.Leaf.ID]
	} else {
		leaf, ok = st.rels[req.Leaf.Rel]
	}
	if !ok {
		return nil, fmt.Errorf("shard %d: unknown scatter leaf %+v at epoch %d", w.shard, req.Leaf, req.Epoch)
	}
	rows, ord := leaf.Rows, leaf.Idx
	pc := &probeCtx{w: w, st: st, leaf: leaf, ref: req.Leaf}
	pc.pos = make([]int32, len(rows))
	for i := range pc.pos {
		pc.pos[i] = int32(i)
	}
	for si, stg := range req.Stages {
		var err error
		rows, ord, err = pc.runStage(stg, rows, ord)
		if err != nil {
			return nil, fmt.Errorf("shard %d: stage %d: %w", w.shard, si, err)
		}
	}
	return &Partial{Epoch: req.Epoch, Rows: rows, Ord: ord}, nil
}

// HashStats reports the scatter-path hash instrumentation: probeHashed
// counts probe rows hashed row-at-a-time inside a join stage (leaf identity
// lost, or the cache was unusable); cacheBuilt counts leaf rows hashed once
// while populating a staged state's key-hash cache. On the hot path —
// repeated scatters against the same staged epoch — the first query pays one
// cacheBuilt pass per (leaf, key-column) pair and every later query reuses
// the cached hashes, leaving both counters flat.
func (w *Worker) HashStats() (probeHashed, cacheBuilt int64) {
	return w.probeHashed.Load(), w.cacheBuilt.Load()
}

// probeCtx threads scatter-leaf row identity through one pipeline so join
// stages can reuse the state's cached key hashes instead of rehashing every
// probe row on every request. pos[i] is the leaf-local position pipeline row
// i derives from, and colMap maps pipeline columns back to leaf columns
// (nil = identity): filters subset pos, projections compose colMap, and the
// first join consumes the identity — its outputs are composite rows, so
// later joins hash directly.
type probeCtx struct {
	w      *Worker
	st     *state
	leaf   Slice
	ref    LeafRef
	pos    []int32
	colMap []int
}

// probeHashes resolves the cached leaf hashes for a join's probe columns,
// or nil when the pipeline rows no longer mirror leaf rows.
func (pc *probeCtx) probeHashes(pCols []int) []uint64 {
	if pc.pos == nil {
		return nil
	}
	mapped, ok := mapCols(pCols, pc.colMap)
	if !ok {
		return nil
	}
	key := hashKey{mat: pc.ref.Mat, id: pc.ref.ID, rel: pc.ref.Rel, cols: fmt.Sprint(mapped)}
	h, built := pc.st.hashesFor(key, pc.leaf, mapped)
	if built {
		pc.w.cacheBuilt.Add(int64(len(pc.leaf.Rows)))
	}
	return h
}

// runStage evaluates one pipeline stage, carrying the scatter-leaf origin
// index of every surviving row. The join replays the local broadcast join
// exactly: buckets in build-row order, probe rows in pipeline order, so the
// emission order within one probe row equals single-node execution.
func (pc *probeCtx) runStage(stg Stage, rows []algebra.Tuple, ord []int32) ([]algebra.Tuple, []int32, error) {
	switch stg.Kind {
	case StageFilter:
		if err := checkWidth(rows, maxCmpIdx(stg.Pred)); err != nil {
			return nil, nil, err
		}
		bp := algebra.NewBoundPred(stg.Pred)
		outR := make([]algebra.Tuple, 0, len(rows))
		outO := make([]int32, 0, len(rows))
		var outP []int32
		if pc.pos != nil {
			outP = make([]int32, 0, len(rows))
		}
		for i, t := range rows {
			if bp.Eval(t) {
				outR = append(outR, t)
				outO = append(outO, ord[i])
				if outP != nil {
					outP = append(outP, pc.pos[i])
				}
			}
		}
		pc.pos = outP
		return outR, outO, nil

	case StageProject:
		if minIdx(stg.Cols) < 0 {
			return nil, nil, fmt.Errorf("negative projection index")
		}
		if err := checkWidth(rows, maxIdx(stg.Cols)); err != nil {
			return nil, nil, err
		}
		outR := make([]algebra.Tuple, len(rows))
		for i, t := range rows {
			nt := make(algebra.Tuple, len(stg.Cols))
			for j, c := range stg.Cols {
				nt[j] = t[c]
			}
			outR[i] = nt
		}
		if m, ok := mapCols(stg.Cols, pc.colMap); ok {
			pc.colMap = m
		} else {
			pc.pos, pc.colMap = nil, nil
		}
		return outR, ord, nil

	case StageJoin:
		if minIdx(stg.PCols) < 0 || minIdx(stg.BCols) < 0 {
			return nil, nil, fmt.Errorf("negative join key index")
		}
		if err := checkWidth(rows, maxIdx(stg.PCols)); err != nil {
			return nil, nil, err
		}
		if err := checkWidth(stg.Build, maxIdx(stg.BCols)); err != nil {
			return nil, nil, fmt.Errorf("build side: %w", err)
		}
		buckets := make(map[uint64][]algebra.Tuple, len(stg.Build))
		for _, bt := range stg.Build {
			h := bt.HashCols(stg.BCols)
			buckets[h] = append(buckets[h], bt)
		}
		ph := pc.probeHashes(stg.PCols)
		var res algebra.BoundPred
		if stg.HasResidual {
			res = algebra.NewBoundPred(stg.Residual)
		}
		resMax := maxCmpIdx(stg.Residual)
		outR := make([]algebra.Tuple, 0, len(rows))
		outO := make([]int32, 0, len(rows))
		missed := 0
		for i, pt := range rows {
			var h uint64
			if ph != nil {
				h = ph[pc.pos[i]]
			} else {
				h = pt.HashCols(stg.PCols)
				missed++
			}
			for _, bt := range buckets[h] {
				if !algebra.EqualOn(pt, stg.PCols, bt, stg.BCols) {
					continue
				}
				lt, rt := bt, pt
				if !stg.BuildIsLeft {
					lt, rt = pt, bt
				}
				row := make(algebra.Tuple, len(lt)+len(rt))
				copy(row, lt)
				copy(row[len(lt):], rt)
				if stg.HasResidual {
					if resMax >= len(row) {
						return nil, nil, fmt.Errorf("residual index %d out of range for width %d", resMax, len(row))
					}
					if !res.Eval(row) {
						continue
					}
				}
				outR = append(outR, row)
				outO = append(outO, ord[i])
			}
		}
		if missed > 0 {
			pc.w.probeHashed.Add(int64(missed))
		}
		pc.pos, pc.colMap = nil, nil
		return outR, outO, nil
	}
	return nil, nil, fmt.Errorf("unknown stage kind %d", stg.Kind)
}

// sameCols reports whether two key-column sets are elementwise equal.
func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mapCols maps pipeline-relative columns back to leaf columns through colMap
// (nil = identity). Reports false when a column falls outside the map — only
// reachable when the pipeline is empty of rows, where nothing would be
// hashed anyway.
func mapCols(cols []int, colMap []int) ([]int, bool) {
	if colMap == nil {
		return cols, true
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(colMap) {
			return nil, false
		}
		out[i] = colMap[c]
	}
	return out, true
}

// maxIdx returns the largest index referenced (-1 for none).
func maxIdx(cols []int) int {
	m := -1
	for _, c := range cols {
		if c > m {
			m = c
		}
	}
	return m
}

// maxCmpIdx returns the largest tuple index a bound predicate touches.
func maxCmpIdx(cs []algebra.BoundCmp) int {
	m := -1
	for _, c := range cs {
		if c.LIdx > m {
			m = c.LIdx
		}
		if c.RIdx > m {
			m = c.RIdx
		}
	}
	return m
}

// checkWidth validates every row is wide enough for the largest referenced
// index — the light structural check that turns malformed requests into
// errors instead of panics.
func checkWidth(rows []algebra.Tuple, need int) error {
	if need < 0 {
		return nil
	}
	for i, t := range rows {
		if need >= len(t) {
			return fmt.Errorf("row %d has width %d, index %d referenced", i, len(t), need)
		}
	}
	return nil
}

// minIdx returns the smallest index referenced (0 for none). Negative
// column indexes are impossible from Lower but reachable from the wire;
// projection and join-key stages reject them (filter predicates treat
// negative indexes as literal operands, matching BoundPred semantics).
func minIdx(cols []int) int {
	m := 0
	for _, c := range cols {
		if c < m {
			m = c
		}
	}
	return m
}
