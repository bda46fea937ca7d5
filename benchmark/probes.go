package main

// Layer probes of the traced run. The refresh path runs inside
// Runtime.Refresh, whose operators and merges the benchmark cannot wrap from
// outside; these probes call the same layers' public functions on the run's
// final state instead, each sized like one refresh cycle, so a layer change
// shows here before (and explains) a move of the end-to-end metric.

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
	"repro/internal/volcano"
	"repro/internal/wal"
)

// probeReps is how often a probe repeats its call; it reports the median.
const probeReps = 5

// timeMedian runs fn probeReps times under a span and returns the median.
func timeMedian(tr *tracer, name string, fn func()) time.Duration {
	var s samples
	for i := 0; i < probeReps; i++ {
		id := tr.begin(name, 0, 0)
		t0 := time.Now()
		fn()
		s.add(time.Since(t0))
		tr.end(id)
	}
	return time.Duration(quantile(s.ms(), 0.5) * float64(time.Millisecond))
}

// probeSetup times the differential engine on its own: OptimizeGreedy builds
// it inside greedy.select_ms.
func probeSetup(c *runCtx, b *base, tr *tracer) {
	u := diff.UniformPercent(b.cat, tpcd.UpdatedRelations(), 5)
	c.layer["diff.engine_ms"] = msOf(timeMedian(tr, "diff.engine", func() {
		diff.NewEngineObserved(b.sys.Dag, b.sys.Model, u, nil).NewEval(diff.NewMatState())
	}))
}

// kernelProbes are one-operator-dominated query shapes, planned over base
// tables only (empty MatSet) so the executor does all the work.
var kernelProbes = []struct {
	metric string
	sql    string
	inputs []string
}{
	{"exec.filter_mrows_per_s", `SELECT * FROM lineitem WHERE lineitem.l_quantity < 3`, []string{"lineitem"}},
	{"exec.join_mrows_per_s", `SELECT * FROM lineitem, orders WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < 255`, []string{"lineitem", "orders"}},
	{"exec.agg_mrows_per_s", `SELECT lineitem.l_suppkey, SUM(lineitem.l_extendedprice) AS rev, COUNT(*) FROM lineitem GROUP BY lineitem.l_suppkey`, []string{"lineitem"}},
}

func probeExec(c *runCtx, b *base, db *storage.Database, tr *tracer) {
	d := dag.New(b.cat)
	opt := volcano.New(d, b.sys.Model)
	sizer := dag.NewSizer(opt.Est, nil)
	for _, k := range kernelProbes {
		root := d.InsertExpr(viewdef.MustParse(b.cat, k.sql))
		plan := opt.Best(root, volcano.NewMatSet(), sizer, opt.NewMemo())
		in := 0
		for _, t := range k.inputs {
			in += db.MustRelation(t).Len()
		}
		dt := timeMedian(tr, k.metric, func() { exec.NewExecutor(db).Run(plan) })
		c.layer[k.metric] = float64(in) / 1e6 / dt.Seconds()
	}
	c.layer["exec.recompute_ms"] = msOf(timeMedian(tr, "exec.recompute", func() {
		ex := exec.NewExecutor(db)
		for _, v := range b.sys.Views {
			ex.EvalNode(v.Root)
		}
	}))
}

// deltaOf gathers one relation's inserts or deletes of a cycle into a
// relation.
func deltaOf(rel *storage.Relation, ops []ingest.Op, name string, del bool) *storage.Relation {
	out := storage.NewRelation(rel.Schema())
	for _, op := range ops {
		if op.Rel == name && op.Del == del {
			out.Append(op.Tuple)
		}
	}
	return out
}

func probeStorage(c *runCtx, b *base, snap *storage.Snapshot, gen *updateGen, tr *tracer) {
	li := snap.Relation("lineitem")
	ops := gen.next(snap.Database())
	plus, minus := deltaOf(li, ops, "lineitem", false), deltaOf(li, ops, "lineitem", true)
	krows := float64(plus.Len()) / 1000
	if krows > 0 {
		c.layer["storage.union_cow_us_per_krow"] = usOf(timeMedian(tr, "storage.UnionCOW", func() { storage.UnionCOW(li, plus) })) / krows
		c.layer["storage.minus_cow_us_per_krow"] = usOf(timeMedian(tr, "storage.MinusCOW", func() { storage.MinusCOW(li, minus) })) / krows
	}
	st := storage.NewSnapshotStore()
	c.layer["storage.publish_us"] = usOf(timeMedian(tr, "storage.PublishState", func() { st.PublishState(snap.Database(), snap.Mats()) }))
	clones := make([]*storage.Relation, probeReps) // a clone carries no cached views
	for i := range clones {
		clones[i] = li.Clone()
	}
	next := 0
	c.layer["storage.colview_build_ms"] = msOf(timeMedian(tr, "storage.ColView", func() {
		cl := clones[next]
		next++
		cv := cl.ColView()
		for col := range cl.Schema() {
			cv.Col(col)
		}
		cv.KeyHashes([]int{0}, storage.DefaultPar())
	}))
}

// probeWAL times the log on a scratch directory with the workload's flush
// policy: appends of one micro-batch (what the ingest loop logs at a time),
// the record encoder, and a scan of the run's own directory.
func probeWAL(c *runCtx, w *durableIngest, tr *tracer) {
	ops := w.gen.next(w.rt.Snapshots().Current().Database())
	if len(ops) > 2000 {
		ops = ops[:2000]
	}
	var recs []wal.DeltaRec
	for _, op := range ops {
		if n := len(recs); n == 0 || recs[n-1].Rel != op.Rel || recs[n-1].Del != op.Del {
			recs = append(recs, wal.DeltaRec{Rel: op.Rel, Del: op.Del})
		}
		recs[len(recs)-1].Rows = append(recs[len(recs)-1].Rows, op.Tuple)
	}
	bytes := 0
	dt := timeMedian(tr, "wal.EncodeDelta", func() {
		bytes = 0
		for i := range recs {
			bytes += len(wal.EncodeDelta(&recs[i]))
		}
	})
	c.layer["wal.encode_mb_per_s"] = float64(bytes) / (1 << 20) / dt.Seconds()

	opts := durableOptions(filepath.Join(c.dir, "walprobe"))
	log, _, err := wal.Open(opts.Dir, wal.Options{Fsync: opts.Fsync, CommitWindow: opts.CommitWindow})
	if err != nil {
		c.fail(1, "wal probe: %v", err)
		return
	}
	var appends samples
	for i := 0; i < 4*probeReps; i++ {
		id := tr.begin("wal.AppendBatch", 0, 0)
		t0 := time.Now()
		err = log.AppendBatch(&wal.Batch{Seq: int64(i + 1), Epoch: int64(i + 1), Deltas: recs})
		appends.add(time.Since(t0))
		tr.end(id)
		if err != nil {
			c.fail(1, "wal probe append: %v", err)
			break
		}
	}
	if err := log.Close(); err != nil {
		c.fail(1, "wal probe close: %v", err)
	}
	c.layer["wal.append_us_p50"] = 1000 * quantile(appends.ms(), 0.5)

	mb := dirSizeMB(w.dir)
	dt = timeMedian(tr, "wal.ScanBatches", func() {
		if _, err := wal.ScanBatches(w.dir, 0); err != nil {
			c.fail(1, "wal scan: %v", err)
		}
	})
	c.layer["wal.scan_mb_per_s"] = mb / dt.Seconds()
}

// probeShard prices one install's pieces on the run's own data: it lets the
// writer run one more cycle, diffs the two snapshots the way
// Coordinator.Install does, and times slicing, the stage codec, and a
// scratch worker (with a stage log) staging and committing the result.
func probeShard(c *runCtx, w *serving, tr *tracer) {
	l := c.layer
	asg := w.sr.Coordinator().Assignment()
	prev := w.rt.Snapshots().Current()
	if _, _, err := w.cycle(time.Now(), tr, 0); err != nil {
		c.fail(1, "shard probe cycle: %v", err)
		return
	}
	cur := w.rt.Snapshots().Current()

	var reqs []*shard.StageReq
	l["shard.slice_ms"] = msOf(timeMedian(tr, "shard.SliceOf", func() {
		reqs = reqs[:0]
		for _, rg := range asg.Ranges() {
			req := &shard.StageReq{Epoch: cur.Epoch(), From: prev.Epoch(), Rels: map[string]shard.Slice{}, Mats: map[int32]shard.Slice{}}
			for _, name := range cur.Database().Names() {
				if rel := cur.Relation(name); rel != prev.Relation(name) {
					req.Rels[name] = shard.SliceOf(rel, asg, rg[0], rg[1])
				}
			}
			for id, rel := range cur.Mats() {
				if rel != prev.Mat(id) {
					req.Mats[int32(id)] = shard.SliceOf(rel, asg, rg[0], rg[1])
				}
			}
			reqs = append(reqs, req)
		}
	}))
	var enc [][]byte
	l["shard.encode_stage_ms"] = msOf(timeMedian(tr, "shard.EncodeStage", func() {
		enc = enc[:0]
		for _, req := range reqs {
			enc = append(enc, shard.EncodeStage(req))
		}
	}))
	total := 0
	for _, b := range enc {
		total += len(b)
	}
	l["shard.stage_mb_per_install"] = float64(total) / (1 << 20)
	l["shard.decode_stage_ms"] = msOf(timeMedian(tr, "shard.DecodeStage", func() {
		for _, b := range enc {
			if _, err := shard.DecodeStage(b); err != nil {
				c.fail(1, "decode stage: %v", err)
			}
		}
	}))

	dir := filepath.Join(c.dir, "shardprobe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.fail(1, "shard probe: %v", err)
		return
	}
	wk, err := shard.NewWorker(0, asg, dir)
	if err != nil {
		c.fail(1, "shard probe worker: %v", err)
		return
	}
	defer wk.Close()
	if err := wk.Stage(&shard.StageReq{Epoch: prev.Epoch(), From: -1, Base: true}); err != nil {
		c.fail(1, "shard probe base stage: %v", err)
		return
	}
	// Each repetition stages the same delta as the next epoch in line.
	req := *reqs[0]
	req.Epoch = prev.Epoch()
	l["shard.worker_stage_ms"] = msOf(timeMedian(tr, "shard.Worker.Stage", func() {
		req.From, req.Epoch = req.Epoch, req.Epoch+1
		if err := wk.Stage(&req); err != nil {
			c.fail(1, "shard probe stage: %v", err)
		}
	}))
	l["shard.commit_us"] = usOf(timeMedian(tr, "shard.Worker.Commit", func() {
		if err := wk.Commit(req.Epoch); err != nil {
			c.fail(1, "shard probe commit: %v", err)
		}
	}))
	l["shard.stage_log_mb"] = dirSizeMB(filepath.Dir(w.stageDirs[0]))
}
