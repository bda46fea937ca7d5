package shard

// Wire message types and the plan lowering that produces scatter requests.
// Everything a worker executes is index-based — bound predicates, projection
// index lists, join key columns — so workers are schema-agnostic: the
// coordinator compiles all name resolution out of the plan before shipping.

import (
	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// LeafRef identifies the scatter leaf's stored relation on the worker.
type LeafRef struct {
	// Mat selects a materialized result by system-DAG node ID; otherwise Rel
	// names a base relation.
	Mat bool
	ID  int32
	Rel string
}

// StageKind discriminates pipeline stages.
type StageKind uint8

const (
	// StageFilter keeps rows passing a bound predicate.
	StageFilter StageKind = 1
	// StageProject rebuilds each row from input column indexes.
	StageProject StageKind = 2
	// StageJoin hash-joins the pipeline rows (probe side) against broadcast
	// build rows; with no key columns it is the nested-loop fallback (probe
	// outer, build inner).
	StageJoin StageKind = 3
)

// Stage is one pipeline step of a scatter request.
type Stage struct {
	Kind StageKind

	// Pred is the filter predicate (StageFilter), compiled against the
	// pipeline schema at this point.
	Pred []algebra.BoundCmp

	// Cols are the input column indexes per output column (StageProject).
	Cols []int

	// Join fields (StageJoin). Build rows arrive in coordinator execution
	// order — the order the local join would build its buckets in — and
	// BuildIsLeft says which side of the emitted row they occupy. BCols and
	// PCols are the equi-key columns in the build and pipeline rows;
	// Residual, if HasResidual, is bound against the combined row.
	BuildIsLeft  bool
	BCols, PCols []int
	Build        []algebra.Tuple
	HasResidual  bool
	Residual     []algebra.BoundCmp
}

// ScatterReq asks a worker to run a pipeline over its slice of the leaf at
// one staged epoch.
type ScatterReq struct {
	Epoch  int64
	Leaf   LeafRef
	Stages []Stage
}

// Partial is one shard's pipeline output: rows plus, per row, the global
// index of the scatter-leaf row it derives from. Ord is ascending (runs of
// equal values for join expansions), which is what makes the gather a linear
// ordered merge.
type Partial struct {
	Epoch int64
	Rows  []algebra.Tuple
	Ord   []int32
}

// StageReq carries epoch state to a worker: either a full bootstrap (Base)
// replacing everything, or the slices of exactly the relations that changed
// since the From epoch (pointer-diff of the COW snapshots). Drops lists
// materialized results retired since From.
type StageReq struct {
	Epoch int64
	// From is the epoch the delta was diffed against (-1 for Base). A worker
	// whose staged epoch is >= From may apply the delta onto its latest
	// state: COW versions are never reused, so any relation differing
	// between the worker's state and Epoch is in the changed set.
	From  int64
	Base  bool
	Drops []int32
	Rels  map[string]Slice
	Mats  map[int32]Slice
}

// Hello reports a worker's identity and progress; the coordinator validates
// the assignment against it when the fleet is connected.
type Hello struct {
	Shard      int
	Shards     int
	Partitions int
	Staged     int64 // highest staged epoch (-1: none)
	Committed  int64 // highest commit seen (-1: none; advisory)
}

// ---------------------------------------------------------------------------
// Plan lowering.

// LowerEnv supplies the coordinator-side context Lower needs: leaf
// resolution against the pinned snapshot and subplan execution for build
// sides. MaxBroadcast bounds inline build rows (exec.BroadcastMax()).
type LowerEnv struct {
	// Leaf resolves a stored leaf node — a Reuse/Probe of a materialized
	// result or a base-table access — to its wire reference and its stored
	// schema (the schema the shard's slice rows are in). ok=false vetoes
	// lowering (e.g. a dynamic-cache entry that lives only on the
	// coordinator).
	Leaf func(p *volcano.PlanNode) (ref LeafRef, stored algebra.Schema, ok bool)
	// Exec executes a non-spine subplan coordinator-side, producing exactly
	// the rows (and row order) local execution would feed the join build.
	Exec func(p *volcano.PlanNode) *storage.Relation
	// MaxBroadcast is the largest build side shipped inline.
	MaxBroadcast int
}

// Lower compiles a served physical plan into a scatter pipeline, or reports
// ok=false when the plan is not shardable: compute aggregates, dedup, union,
// minus, unresolvable leaves, or a join whose build side exceeds
// MaxBroadcast. The caller then executes the plan locally at the same epoch
// — the fallback changes latency, never answers.
//
// The scatter spine is the transitive probe side of the join tree under the
// same plan-estimate orientation rule the local executor commits to
// (exec.BuildLeftFromPlan), and every projection the local executor would
// apply (Run projects each node's result to its equivalence schema) is
// replicated as an explicit stage, so worker-side evaluation is
// step-for-step the local pipeline restricted to the shard's slice.
func Lower(p *volcano.PlanNode, env LowerEnv) (*ScatterReq, bool) {
	leaf, stages, _, ok := lowerNode(p, env)
	if !ok {
		return nil, false
	}
	return &ScatterReq{Leaf: leaf, Stages: stages}, true
}

func lowerNode(p *volcano.PlanNode, env LowerEnv) (leaf LeafRef, stages []Stage, cur algebra.Schema, ok bool) {
	if p.Access == volcano.Reuse || p.Access == volcano.Probe {
		ref, stored, ok := env.Leaf(p)
		if !ok {
			return LeafRef{}, nil, nil, false
		}
		stages = projectStages(nil, stored, p.E.Schema)
		return ref, stages, p.E.Schema, true
	}
	op := p.Op
	switch op.Kind {
	case dag.OpScan:
		ref, stored, ok := env.Leaf(p)
		if !ok {
			return LeafRef{}, nil, nil, false
		}
		stages = projectStages(nil, stored, p.E.Schema)
		return ref, stages, p.E.Schema, true

	case dag.OpSelect:
		if op.Pred.HasClauses() || op.Pred.HasArith() {
			// The wire format carries flat column/literal conjunct lists only;
			// vetoing keeps disjunctions and arithmetic predicates on the
			// (correctness-equivalent) local fallback rather than silently
			// dropping clauses or compiled arithmetic trees.
			return LeafRef{}, nil, nil, false
		}
		leaf, stages, cur, ok = lowerNode(p.Children[0], env)
		if !ok {
			return LeafRef{}, nil, nil, false
		}
		bp := op.Pred.Bind(cur)
		stages = append(stages, Stage{Kind: StageFilter, Pred: bp.Cmps()})
		stages = projectStages(stages, cur, p.E.Schema)
		return leaf, stages, p.E.Schema, true

	case dag.OpProject:
		leaf, stages, cur, ok = lowerNode(p.Children[0], env)
		if !ok {
			return LeafRef{}, nil, nil, false
		}
		stages = projectStages(stages, cur, p.E.Schema)
		return leaf, stages, p.E.Schema, true

	case dag.OpJoin:
		if op.Pred.HasClauses() || op.Pred.HasArith() {
			return LeafRef{}, nil, nil, false // see OpSelect
		}
		lSchema := p.Children[0].E.Schema
		rSchema := p.Children[1].E.Schema
		outSchema := lSchema.Concat(rSchema)
		lCols, rCols, residual := exec.SplitJoinPred(op.Pred, lSchema, rSchema)

		buildChild, probeChild := p.Children[1], p.Children[0]
		buildLeft := false
		var bCols, pCols []int
		if len(lCols) == 0 {
			// Nested loop: orientation-free locally — the left child is
			// always the outer — so the spine must be the left child and the
			// inner is broadcast whole.
			bCols, pCols = nil, nil
		} else if exec.BuildLeftFromPlan(p) {
			buildChild, probeChild = p.Children[0], p.Children[1]
			buildLeft = true
			bCols, pCols = lCols, rCols
		} else {
			bCols, pCols = rCols, lCols
		}

		buildRel := env.Exec(buildChild)
		if buildRel.Len() > env.MaxBroadcast {
			return LeafRef{}, nil, nil, false
		}
		leaf, stages, cur, ok = lowerNode(probeChild, env)
		if !ok {
			return LeafRef{}, nil, nil, false
		}
		_ = cur // the probe pipeline is in probeChild.E.Schema by construction
		st := Stage{
			Kind: StageJoin, BuildIsLeft: buildLeft,
			BCols: bCols, PCols: pCols,
			Build: buildRel.Rows(),
		}
		if len(residual) > 0 {
			st.HasResidual = true
			st.Residual = algebra.Pred{Conjuncts: residual}.Bind(outSchema).Cmps()
		}
		stages = append(stages, st)
		stages = projectStages(stages, outSchema, p.E.Schema)
		return leaf, stages, p.E.Schema, true
	}
	return LeafRef{}, nil, nil, false
}

// projectStages appends the projection stage Run's projectToP would apply
// (none when the schemas already match).
func projectStages(stages []Stage, cur, target algebra.Schema) []Stage {
	if exec.SchemasEqual(cur, target) {
		return stages
	}
	return append(stages, Stage{Kind: StageProject, Cols: exec.ProjIndexes(cur, target)})
}
