package core

// Online adaptive view re-selection with hot-swap rematerialization. The
// paper's greedy selection runs once, at configuration time; a system
// serving shifting traffic needs the stored-vs-derived boundary to be a
// runtime decision. The pipeline here closes that loop:
//
//  1. the serving layer and the refresh driver record per-epoch workload
//     statistics — query rates by canonical shape, update volumes by
//     relation — into an internal/workload.Tracker;
//  2. Adapt builds a fresh system over the same catalog from the registered
//     views plus the hottest observed ad-hoc query shapes (weighted by their
//     observed per-cycle rates) and an UpdateSpec scaled to the observed
//     update rates, then re-runs greedy selection seeded from the prior
//     solution (greedy.Config.Seed: each prior pick is re-justified first,
//     so an undrifted workload converges in one benefit call per pick);
//  3. the delta between the current and newly chosen materialized sets is
//     computed by canonical node key (the two systems have distinct DAGs);
//  4. results entering the set are materialized from the current immutable
//     snapshot — never from live state, so readers keep querying while the
//     round runs — and the new plan carries their differential maintenance
//     plans;
//  5. the same call installs the swap. Adapt runs on the refresh writer's
//     goroutine, so its return is an epoch boundary: carried-over results
//     keep their live relations, incoming ones take the new builds, dropped
//     ones retire with their diff plans, and the post-swap state is
//     published as the next epoch together with its materialized set: the
//     new plan and a serving front-end generation over it. Every reader
//     plans with the set of the snapshot it reads — the current one
//     locally, the gate on a sharded runtime — so it resolves against the
//     results that snapshot holds, whichever side of the swap it is on.
//
// No swap state outlives the call: the build reads the current epoch and the
// install publishes the next, with no refresh batch in between. See
// ARCHITECTURE.md, "Adaptive re-selection and hot swap".

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/diff"
	"repro/internal/exec"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/viewdef"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// The adaptation knobs.
const (
	// adaptTopQueries caps how many observed query shapes (hottest first)
	// are fed to re-selection. A cap that admits every shape of a drifting
	// mix keeps the results a past phase needed justified by its cold
	// traffic, so a swap never retires them.
	adaptTopQueries = 6
	// adaptMinWeight drops shapes observed fewer times per cycle.
	adaptMinWeight = 0.5
	// adaptMinImprovement is the fraction of the keep-cost a re-selection
	// must save before a changed set is installed (hysteresis against
	// churn).
	adaptMinImprovement = 0.01
	// adaptMinDrift gates the rounds EnableAdapt runs on observed workload
	// movement: a round is skipped while the tracker's fingerprint has
	// shifted less than this fraction of its mass since the last completed
	// round (workload.Drift), so a steady workload costs no re-selection
	// work at all. Explicit Adapt calls always run.
	adaptMinDrift = 0.1
)

// AdaptResult describes one completed round.
type AdaptResult struct {
	// Epoch is the snapshot epoch the build read; an install publishes the
	// next one.
	Epoch int64
	// ObservedQueries is how many tracked shapes entered re-selection.
	ObservedQueries int
	// KeepCost is the estimated per-cycle workload cost of keeping the prior
	// materialized set under the newly observed statistics; NewCost is the
	// re-selection's cost. The warm start re-justifies seeds one at a time,
	// so NewCost ≤ KeepCost is a property of greedy behavior rather than a
	// theorem (complementary picks could in principle be jointly lost); it
	// is enforced in spirit by the hysteresis gate — a changed set installs
	// only when NewCost clears KeepCost by adaptMinImprovement — and checked
	// over seeded drifts in core/adapt_prop_test.go.
	KeepCost, NewCost float64
	// Changed reports that the round installed a new plan: the materialized
	// set changed by more than churn, or observed cardinalities re-priced
	// the same set.
	Changed bool
	// Incoming and Outgoing list the canonical keys of full results entering
	// and leaving the materialized set.
	Incoming, Outgoing []string
	// Picks is the number of extra materializations the new selection chose.
	Picks int
}

// AdaptStats counts adaptation activity since EnableServing.
type AdaptStats struct {
	// Rounds is the number of completed rounds; Installs of those that
	// installed a new plan.
	Rounds, Installs int
	// Skipped counts the rounds EnableAdapt did not run because the
	// workload fingerprint moved less than adaptMinDrift since the last
	// round.
	Skipped int
	// LastInstallEpoch is the epoch published by the most recent install.
	LastInstallEpoch int64
	// LastError records the most recent failed round ("" when none).
	LastError string
}

// pendingSwap is a built-but-not-installed adaptation: everything the writer
// needs to switch plans with O(set) pointer work once the build is done.
type pendingSwap struct {
	plan *MaintenancePlan
	// built holds the materialized relations of incoming results, keyed by
	// new-system node ID; builtAgg the mergeable state of incoming
	// aggregates.
	built    map[int]*storage.Relation
	builtAgg map[int]*exec.AggTable
	// carry maps new-system IDs to old-system IDs for results present in
	// both sets (by canonical key): they keep their live relations. The old
	// IDs are those of the plan the build snapshot carries.
	carry map[int]int
	// The new plan's serving front-end generation and its cache base set
	// (DAG replay plus subsumption), built before the install touches any
	// shared state.
	gen  *frontEnd
	base *volcano.MatSet
}

// errAdaptDurable: adaptation changes the materialized set at runtime, but
// recovery reconstructs the plan from the registered views, update spec and
// optimizer configuration alone — an adapted plan cannot be rebuilt, so a
// WAL directory written under adaptation would be unrecoverable. Rejected up
// front rather than discovered at the next recovery.
var errAdaptDurable = errors.New(
	"core: adaptive re-selection is not supported on a durable (WAL-backed) runtime: an adapted plan cannot be reconstructed at recovery")

// EnableAdapt switches on automatic adaptation: every Refresh ends with an
// adaptation round (Adapt), skipped while the observed workload has drifted
// less than adaptMinDrift since the last round. Serving is enabled with
// defaults if it is not already; call EnableServing first to control its
// options. Call it from the refresh writer's goroutine. Durable runtimes
// (OpenDurable) are rejected — see errAdaptDurable.
func (r *Runtime) EnableAdapt() error {
	if r.dur != nil {
		return errAdaptDurable
	}
	r.EnableServing(ServeOptions{})
	r.adapt = true
	return nil
}

// AdaptStats returns a copy of the adaptation counters.
func (r *Runtime) AdaptStats() AdaptStats {
	r.adaptMu.Lock()
	defer r.adaptMu.Unlock()
	return r.stats
}

// autoAdapt runs the round EnableAdapt asks for at the end of a refresh
// cycle, unless the drift gate skips it: in steady state re-selection would
// re-derive the same answer, so it is not paid for. The first round always
// runs (no prior fingerprint to compare against).
func (r *Runtime) autoAdapt() {
	if !r.adapt {
		return
	}
	if r.lastFingerprint != nil && workload.Drift(r.tracker.Fingerprint(), r.lastFingerprint) < adaptMinDrift {
		r.adaptMu.Lock()
		r.stats.Skipped++
		r.adaptMu.Unlock()
		return
	}
	r.Adapt()
}

// Adapt runs one re-selection round against the observed workload and
// installs its outcome before it returns. It rebuilds the optimization
// problem from the registered views plus the hottest tracked query shapes
// and runs greedy selection seeded from the prior solution. If the chosen
// materialized set changed and the estimated saving clears
// adaptMinImprovement, or observed cardinalities re-priced the same set, it
// materializes the incoming results from the current snapshot and publishes
// the new set as the next epoch. Readers keep querying throughout, but Adapt
// must be called from the refresh writer's goroutine: its call point is the
// epoch boundary at which readers switch from the old set to the new one.
// Serving must be enabled first.
func (r *Runtime) Adapt() (*AdaptResult, error) {
	var fp map[string]float64
	if r.tracker != nil {
		fp = r.tracker.Fingerprint()
	}
	res, ps, err := r.buildSwap()
	var epoch int64
	if ps != nil {
		epoch = r.install(ps)
		res.Changed = true
	}
	if err == nil {
		r.lastFingerprint = fp
	}
	r.adaptMu.Lock()
	r.stats.Rounds++
	if err != nil {
		r.stats.LastError = err.Error()
	}
	if ps != nil {
		r.stats.Installs++
		r.stats.LastInstallEpoch = epoch
	}
	r.adaptMu.Unlock()
	return res, err
}

// buildSwap runs the re-selection of one round and, when its outcome is
// worth installing, builds the swap from the current snapshot. It touches
// no state that readers or the refresh path share.
func (r *Runtime) buildSwap() (*AdaptResult, *pendingSwap, error) {
	if r.dur != nil {
		return nil, nil, errAdaptDurable
	}
	if r.serverIfEnabled() == nil || r.Mt.Snap == nil {
		return nil, nil, fmt.Errorf("core: enable serving before Adapt")
	}
	snap := r.Mt.Snap.Current()
	plan := setOf(snap).plan

	// Rebuild the optimization problem from observed statistics. The prior
	// system's registered views are the durable workload contract; its
	// queries are replaced wholesale by what serving actually observed
	// (declared queries that are still hot re-enter through the tracker).
	sys := NewSystem(plan.System.Cat, Options{
		Params:             plan.System.Model.P,
		DisableSubsumption: plan.System.disableSubsumption,
	})
	// With feedback enabled, re-selection prices candidates against observed
	// cardinalities: the store is keyed by canonical node key, so corrections
	// recorded against the prior system's DAG apply to the rebuilt one.
	// (Observer mode keeps telemetry without touching the cost model.)
	r.adaptMu.Lock()
	if r.fb != nil && r.fbCorrect {
		sys.Corr = r.fb
	}
	r.adaptMu.Unlock()
	for _, v := range plan.System.Views {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			return nil, nil, fmt.Errorf("core: adapt: %w", err)
		}
	}
	top := r.tracker.TopQueries(adaptTopQueries, adaptMinWeight)
	used := 0
	for i, q := range top {
		def, err := viewdef.Parse(sys.Cat, q.SQL)
		if err != nil {
			continue // tracked text no longer parses; shape ages out
		}
		if _, err := sys.AddQuery(fmt.Sprintf("obs%d", i), def, q.Weight); err == nil {
			used++
		}
	}

	u := r.observedSpec(plan)
	cfg := greedy.DefaultConfig()
	// Finalize the new DAG before mapping the prior solution into it: the
	// two systems have distinct node IDs, so seeds travel by canonical key.
	sys.prepare()
	cfg.Seed = mapChanges(priorChanges(plan), plan.System.Dag, sys.Dag)
	newPlan := sys.OptimizeWorkload(u, cfg)

	// Price "keep the previous set" under the same engine: the baseline the
	// re-selection must not exceed, and the hysteresis reference.
	roots, wq := sys.workloadInputs()
	keep := greedy.CostOf(newPlan.Engine, roots, wq, cfg.Seed)

	res := &AdaptResult{
		Epoch:           snap.Epoch(),
		ObservedQueries: used,
		KeepCost:        keep,
		NewCost:         newPlan.TotalCost,
		Picks:           len(newPlan.Greedy.Chosen),
	}
	res.Incoming, res.Outgoing = setDelta(plan, newPlan)
	setSame := len(res.Incoming) == 0 && len(res.Outgoing) == 0 &&
		sameAuxiliary(plan, newPlan)
	if setSame && sys.Corr == nil {
		return res, nil, nil // same materialized set: nothing to swap
	}
	if setSame {
		// Same set, but the new plan was priced with fresher observed
		// cardinalities: the (carry-everything, build-nothing) swap
		// installs the corrected engine and plan estimates without touching a
		// single stored relation. Hysteresis does not apply — there is no
		// materialization churn to guard against.
	} else if keep-newPlan.TotalCost < adaptMinImprovement*keep {
		return res, nil, nil // set changed but the saving is churn-level
	}

	// Materialization of incoming results, pinned to the build snapshot:
	// every read resolves against immutable relations, so readers run
	// beside it.
	built := make(map[int]*storage.Relation)
	builtAgg := make(map[int]*exec.AggTable)
	carry := make(map[int]int)
	oldByKey := make(map[string]int)
	for oldID := range plan.Eval.MS.Fulls.Full {
		if snap.Mat(oldID) != nil {
			oldByKey[plan.System.Dag.Equivs[oldID].Key] = oldID
		}
	}
	tmp := exec.NewExecutor(snap.Database())
	tmp.Sizer = newPlan.Engine.FinalRows
	for _, newID := range sortedMatIDs(newPlan) {
		e := newPlan.System.Dag.Equivs[newID]
		if e.IsTable {
			continue // aliased from the live database at install
		}
		if oldID, ok := oldByKey[e.Key]; ok {
			carry[newID] = oldID
			continue
		}
		tmp.MaterializeNode(e)
		built[newID] = tmp.Mat[newID]
		if at := tmp.Agg[newID]; at != nil {
			builtAgg[newID] = at
		}
	}

	gen, base := newFrontEnd(newPlan)
	return res, &pendingSwap{
		plan: newPlan, built: built, builtAgg: builtAgg, carry: carry,
		gen: gen, base: base,
	}, nil
}

// observedSpec builds the re-selection UpdateSpec: the prior propagation
// order (so ChangeDiff update numbers map one-to-one) with per-relation
// volumes replaced by the tracker's observed per-cycle rates where any cycle
// has been observed.
func (r *Runtime) observedSpec(plan *MaintenancePlan) *diff.UpdateSpec {
	prior := plan.Engine.U
	u := diff.NewUpdateSpec(prior.Rels)
	rates := r.tracker.UpdateRates()
	cycles := r.tracker.Cycles()
	for _, rel := range prior.Rels {
		if rt, ok := rates[rel]; ok && cycles > 0 {
			u.Ins[rel], u.Del[rel] = rt.Ins, rt.Del
		} else {
			u.Ins[rel], u.Del[rel] = prior.Ins[rel], prior.Del[rel]
		}
	}
	return u
}

// priorChanges reconstructs the prior solution's extra materializations.
// When the plan came from greedy, the picks are replayed in recorded order
// (descending benefit — the pick order under the paper's monotonicity
// assumption), so re-seeding under unchanged statistics retraces the prior
// trajectory and converges without churn. Otherwise the final state is
// decomposed deterministically: fulls, then diffs, then indexes, by node ID.
func priorChanges(plan *MaintenancePlan) []diff.Change {
	if plan.Greedy != nil {
		out := make([]diff.Change, len(plan.Greedy.Chosen))
		for i, d := range plan.Greedy.Chosen {
			out[i] = d.Change
		}
		return out
	}
	isView := map[int]bool{}
	for _, v := range plan.System.Views {
		isView[v.Root.ID] = true
	}
	ms := plan.Eval.MS
	var out []diff.Change
	ids := make([]int, 0, len(ms.Fulls.Full))
	for id := range ms.Fulls.Full {
		if !isView[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, diff.Change{Kind: diff.ChangeFull, EquivID: id})
	}
	dks := make([]diff.DiffKey, 0, len(ms.Diffs))
	for dk := range ms.Diffs {
		dks = append(dks, dk)
	}
	sort.Slice(dks, func(i, j int) bool {
		if dks[i].EquivID != dks[j].EquivID {
			return dks[i].EquivID < dks[j].EquivID
		}
		return dks[i].Update < dks[j].Update
	})
	for _, dk := range dks {
		out = append(out, diff.Change{Kind: diff.ChangeDiff, EquivID: dk.EquivID, Update: dk.Update})
	}
	type ik struct {
		id  int
		col string
	}
	iks := make([]ik, 0, len(ms.Fulls.Indexes))
	for k := range ms.Fulls.Indexes {
		iks = append(iks, ik{k.EquivID, k.Col})
	}
	sort.Slice(iks, func(i, j int) bool {
		if iks[i].id != iks[j].id {
			return iks[i].id < iks[j].id
		}
		return iks[i].col < iks[j].col
	})
	for _, k := range iks {
		out = append(out, diff.Change{Kind: diff.ChangeIndex, EquivID: k.id, Col: k.col})
	}
	return out
}

// mapChanges translates changes between two DAGs by canonical node key,
// dropping those whose shape the target does not contain. A nil target
// returns a copy unchanged (used to snapshot the prior solution).
func mapChanges(chs []diff.Change, from, to *dag.DAG) []diff.Change {
	out := make([]diff.Change, 0, len(chs))
	for _, c := range chs {
		if to == nil {
			out = append(out, c)
			continue
		}
		ne := to.Lookup(from.Equivs[c.EquivID].Key)
		if ne == nil {
			continue
		}
		c.EquivID = ne.ID
		out = append(out, c)
	}
	return out
}

// setDelta lists the full-result keys entering and leaving the materialized
// set between two plans, sorted.
func setDelta(prev, next *MaintenancePlan) (incoming, outgoing []string) {
	oldKeys := map[string]bool{}
	for id := range prev.Eval.MS.Fulls.Full {
		oldKeys[prev.System.Dag.Equivs[id].Key] = true
	}
	newKeys := map[string]bool{}
	for id := range next.Eval.MS.Fulls.Full {
		newKeys[next.System.Dag.Equivs[id].Key] = true
	}
	for k := range newKeys {
		if !oldKeys[k] {
			incoming = append(incoming, k)
		}
	}
	for k := range oldKeys {
		if !newKeys[k] {
			outgoing = append(outgoing, k)
		}
	}
	sort.Strings(incoming)
	sort.Strings(outgoing)
	return incoming, outgoing
}

// sameAuxiliary compares the keyed diff and index choices of two plans (the
// full sets are compared by setDelta).
func sameAuxiliary(prev, next *MaintenancePlan) bool {
	keyed := func(p *MaintenancePlan) map[string]bool {
		out := map[string]bool{}
		for dk := range p.Eval.MS.Diffs {
			out["d:"+p.System.Dag.Equivs[dk.EquivID].Key+fmt.Sprintf("#%d", dk.Update)] = true
		}
		for ik := range p.Eval.MS.Fulls.Indexes {
			out["i:"+p.System.Dag.Equivs[ik.EquivID].Key+"#"+ik.Col] = true
		}
		return out
	}
	a, b := keyed(prev), keyed(next)
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// sortedMatIDs returns the new plan's materialized node IDs in ascending
// order.
func sortedMatIDs(p *MaintenancePlan) []int {
	ids := make([]int, 0, len(p.Eval.MS.Fulls.Full))
	for id := range p.Eval.MS.Fulls.Full {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// install switches the runtime to a built swap and publishes the post-swap
// state as the next epoch, whose number it returns. It runs on the writer's
// goroutine right after the build, so the current snapshot is still the one
// the build read. The install itself is cheap — map assembly over the
// already-built relations, a cache migration onto the prebuilt serving
// generation, and one snapshot publication.
func (r *Runtime) install(ps *pendingSwap) int64 {
	cur := r.Mt.Snap.Current()

	// Assemble the new materialization maps: live relations for carryovers,
	// the round's builds for incoming results, base aliases for table nodes.
	newMat := make(map[int]*storage.Relation)
	newAgg := make(map[int]*exec.AggTable)
	for _, newID := range sortedMatIDs(ps.plan) {
		e := ps.plan.System.Dag.Equivs[newID]
		if e.IsTable {
			newMat[newID] = r.Ex.DB.MustRelation(e.Tables[0])
			continue
		}
		if oldID, ok := ps.carry[newID]; ok {
			newMat[newID] = r.Ex.Mat[oldID]
			if at := r.Ex.Agg[oldID]; at != nil {
				newAgg[newID] = at
			}
			continue
		}
		newMat[newID] = ps.built[newID]
		if at := ps.builtAgg[newID]; at != nil {
			newAgg[newID] = at
		}
	}

	// The swap proper. The cache entries migrate onto the new generation,
	// which is published with the epoch it serves: a query at that epoch
	// plans with it, and one at an older epoch keeps the generation its
	// snapshot holds. In-flight executions hold immutable old-epoch
	// snapshots and finish undisturbed.
	s := r.serverIfEnabled()
	s.mu.Lock()
	ps.gen.mgr, _, _ = setOf(cur).gen.mgr.Rebase(ps.gen.dag, ps.plan.System.Model, ps.base)
	s.mu.Unlock()
	r.Plan = ps.plan
	r.Ex.Mat, r.Ex.Agg = newMat, newAgg
	r.Ex.Sizer = ps.plan.Engine.FinalRows
	r.Mt.Rebind(ps.plan.Engine, ps.plan.Eval)
	return r.Mt.Snap.PublishSet(r.Ex.DB, newMat, &matSet{plan: ps.plan, gen: ps.gen}).Epoch()
}

// WorkloadReport renders the tracked workload (empty before serving is
// enabled).
func (r *Runtime) WorkloadReport() string {
	if r.tracker == nil {
		return ""
	}
	return r.tracker.Report()
}
