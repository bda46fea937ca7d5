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
//  4. results entering the set are materialized in the background from the
//     current immutable snapshot — never from live state, so the refresh
//     writer keeps running — and the new plan carries their differential
//     maintenance plans;
//  5. the swap is armed and installed by the writer at the next epoch
//     boundary (Refresh entry, or an explicit InstallPending): carried-over
//     results keep their live relations, incoming ones take the background
//     builds, dropped ones retire with their diff plans, and the post-swap
//     state is published as the next epoch together with its materialized
//     set: the new plan and a serving front-end generation over it. Every
//     reader plans with the set of the snapshot it reads — the current one
//     locally, the gate on a sharded runtime — so it resolves against the
//     results that snapshot holds, whichever side of the swap it is on.
//
// The build is valid only for the epoch it read: if a refresh batch was
// published while it ran, the pending swap is discarded (stale) and the next
// round rebuilds from newer state. See ARCHITECTURE.md, "Adaptive
// re-selection and hot swap".

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

// AdaptOptions tunes the adaptation pipeline.
type AdaptOptions struct {
	// TopQueries caps how many observed query shapes (hottest first) are fed
	// to re-selection. 0 selects the default 6.
	TopQueries int
	// MinWeight drops shapes observed fewer times per cycle. 0 selects the
	// default 0.5; negative admits everything.
	MinWeight float64
	// EveryCycles is the auto-round period: with EnableAdapt, a new build is
	// triggered after this many refresh cycles. 0 selects the default 2.
	EveryCycles int
	// Sync runs auto rounds inline on the refresh goroutine instead of in
	// the background. Builds then always see the cycle-boundary epoch and
	// install deterministically on the next Refresh — the configuration the
	// benchmarks use; background mode trades that determinism for a writer
	// that never waits on selection.
	Sync bool
	// MinImprovement is the fraction of the keep-cost a re-selection must
	// save before a swap is armed (hysteresis against churn). 0 selects the
	// default 0.01; negative swaps on any set change.
	MinImprovement float64
	// MinDrift gates auto rounds on observed workload movement: a round is
	// skipped while the tracker's fingerprint has shifted less than this
	// fraction of its mass since the last completed round (workload.Drift),
	// so a steady workload costs no re-selection work at all. 0 selects the
	// default 0.1; negative re-selects every period. Explicit Adapt calls
	// always run.
	MinDrift float64
	// Greedy overrides the selection config (nil = greedy.DefaultConfig()).
	// The Seed field is overwritten by the pipeline.
	Greedy *greedy.Config
}

// withDefaults normalizes an options value.
func (o AdaptOptions) withDefaults() AdaptOptions {
	if o.TopQueries == 0 {
		o.TopQueries = 6
	}
	if o.MinWeight == 0 {
		o.MinWeight = 0.5
	}
	if o.EveryCycles <= 0 {
		o.EveryCycles = 2
	}
	if o.MinImprovement == 0 {
		o.MinImprovement = 0.01
	}
	if o.MinDrift == 0 {
		o.MinDrift = 0.1
	}
	return o
}

// AdaptResult describes one completed build round.
type AdaptResult struct {
	// Epoch is the snapshot epoch the build read; the swap installs only if
	// it is still current at the next boundary.
	Epoch int64
	// ObservedQueries is how many tracked shapes entered re-selection.
	ObservedQueries int
	// KeepCost is the estimated per-cycle workload cost of keeping the prior
	// materialized set under the newly observed statistics; NewCost is the
	// re-selection's cost. The warm start re-justifies seeds one at a time,
	// so NewCost ≤ KeepCost is a property of greedy behavior rather than a
	// theorem (complementary picks could in principle be jointly lost); it
	// is enforced in spirit by the hysteresis gate — a swap is armed only
	// when NewCost clears KeepCost by MinImprovement — and checked over
	// seeded drifts in core/adapt_prop_test.go.
	KeepCost, NewCost float64
	// Changed reports that the materialized set differs and a swap was armed.
	Changed bool
	// Incoming and Outgoing list the canonical keys of full results entering
	// and leaving the materialized set.
	Incoming, Outgoing []string
	// Picks is the number of extra materializations the new selection chose.
	Picks int
}

// AdaptStats counts adaptation activity since EnableServing.
type AdaptStats struct {
	// Rounds is the number of completed build rounds; Armed of those that
	// armed a swap.
	Rounds, Armed int
	// Installs counts swaps installed at an epoch boundary; Discards counts
	// armed swaps dropped because refresh batches overtook their build epoch
	// (or a newer build replaced them).
	Installs, Discards int
	// Skipped counts auto rounds not run because the workload fingerprint
	// moved less than AdaptOptions.MinDrift since the last round.
	Skipped int
	// LastInstallEpoch is the epoch published by the most recent install.
	LastInstallEpoch int64
	// LastError records the most recent failed round ("" when none).
	LastError string
}

// pendingSwap is a built-but-not-installed adaptation: everything the writer
// needs to switch plans with O(set) pointer work at an epoch boundary.
type pendingSwap struct {
	plan *MaintenancePlan
	// built holds background-materialized relations for incoming results,
	// keyed by new-system node ID; builtAgg the mergeable state of incoming
	// aggregates.
	built    map[int]*storage.Relation
	builtAgg map[int]*exec.AggTable
	// carry maps new-system IDs to old-system IDs for results present in
	// both sets (by canonical key): they keep their live relations. The old
	// IDs are those of the plan the build snapshot carries.
	carry map[int]int
	// The new plan's serving front-end generation and its cache base set,
	// prebuilt during the background round (DAG replay plus subsumption is
	// the expensive part of an install): the writer only publishes it.
	gen  *frontEnd
	base *volcano.MatSet
	// epoch the build read; stale if the store has moved past it. Every
	// install publishes an epoch, so an unmoved store still holds the set
	// the build diffed against.
	epoch int64
}

// errAdaptDurable: adaptation changes the materialized set at runtime, but
// recovery reconstructs the plan from the registered views, update spec and
// optimizer configuration alone — an adapted plan cannot be rebuilt, so a
// WAL directory written under adaptation would be unrecoverable. Rejected up
// front rather than discovered at the next recovery.
var errAdaptDurable = errors.New(
	"core: adaptive re-selection is not supported on a durable (WAL-backed) runtime: an adapted plan cannot be reconstructed at recovery")

// EnableAdapt switches on automatic adaptation rounds: after every
// opts.EveryCycles refresh cycles, a re-selection is built (inline or in the
// background, per opts.Sync) and installed at the following epoch boundary.
// Serving is enabled with defaults if it is not already; call EnableServing
// first to control its options. Idempotent in the sense that the latest
// options win. Durable runtimes (OpenDurable) are rejected — see
// errAdaptDurable.
func (r *Runtime) EnableAdapt(opts AdaptOptions) error {
	if r.dur != nil {
		return errAdaptDurable
	}
	r.EnableServing(ServeOptions{})
	o := opts.withDefaults()
	r.adaptMu.Lock()
	r.adaptOpts = &o
	r.adaptMu.Unlock()
	return nil
}

// AdaptStats returns a copy of the adaptation counters.
func (r *Runtime) AdaptStats() AdaptStats {
	r.adaptMu.Lock()
	defer r.adaptMu.Unlock()
	return r.stats
}

// autoAdapt triggers a build round when due (writer's goroutine, after a
// completed refresh cycle).
func (r *Runtime) autoAdapt() {
	r.adaptMu.Lock()
	opts := r.adaptOpts
	r.adaptMu.Unlock()
	if opts == nil {
		return
	}
	r.cycles++
	if r.cycles-r.lastRoundCycle < opts.EveryCycles || r.pending.Load() != nil {
		return
	}
	// Drift gate: in steady state re-selection would re-derive the same
	// answer, so don't pay for it. The first round always runs (no prior
	// fingerprint to compare against).
	if opts.MinDrift >= 0 {
		fp := r.tracker.Fingerprint()
		r.adaptMu.Lock()
		last := r.lastFingerprint
		r.adaptMu.Unlock()
		if last != nil && workload.Drift(fp, last) < opts.MinDrift {
			r.lastRoundCycle = r.cycles
			r.adaptMu.Lock()
			r.stats.Skipped++
			r.adaptMu.Unlock()
			return
		}
	}
	if opts.Sync {
		r.lastRoundCycle = r.cycles
		r.Adapt()
		return
	}
	if !r.building.CompareAndSwap(false, true) {
		return // a background build is already in flight
	}
	r.lastRoundCycle = r.cycles
	go func() {
		defer r.building.Store(false)
		r.Adapt()
	}()
}

// Adapt runs one re-selection round against the observed workload: it
// rebuilds the optimization problem from the registered views plus the
// hottest tracked query shapes, runs greedy selection seeded from the prior
// solution, and — if the chosen materialized set changed and the estimated
// saving clears AdaptOptions.MinImprovement — materializes the incoming
// results from the current snapshot and arms a swap for the next epoch
// boundary. Safe to call from any goroutine while readers query and the
// writer refreshes; serving must be enabled first.
func (r *Runtime) Adapt() (*AdaptResult, error) {
	var fp map[string]float64
	if r.tracker != nil {
		fp = r.tracker.Fingerprint()
	}
	res, err := r.adaptRound()
	r.adaptMu.Lock()
	r.stats.Rounds++
	if err != nil {
		r.stats.LastError = err.Error()
	} else {
		r.lastFingerprint = fp
		if res.Changed {
			r.stats.Armed++
		}
	}
	r.adaptMu.Unlock()
	return res, err
}

func (r *Runtime) adaptRound() (*AdaptResult, error) {
	if r.dur != nil {
		return nil, errAdaptDurable
	}
	if r.serverIfEnabled() == nil || r.Mt.Snap == nil {
		return nil, fmt.Errorf("core: enable serving before Adapt")
	}
	var opts AdaptOptions
	r.adaptMu.Lock()
	if r.adaptOpts != nil {
		opts = *r.adaptOpts
	}
	r.adaptMu.Unlock()
	opts = opts.withDefaults()
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
			return nil, fmt.Errorf("core: adapt: %w", err)
		}
	}
	top := r.tracker.TopQueries(opts.TopQueries, opts.MinWeight)
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
	if opts.Greedy != nil {
		cfg = *opts.Greedy
	}
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
		return res, nil // same materialized set: nothing to swap
	}
	if setSame {
		// Same set, but the new plan was priced with fresher observed
		// cardinalities: arming the (carry-everything, build-nothing) swap
		// installs the corrected engine and plan estimates without touching a
		// single stored relation. Hysteresis does not apply — there is no
		// materialization churn to guard against.
	} else if keep-newPlan.TotalCost < opts.MinImprovement*keep {
		return res, nil // set changed but the saving is churn-level
	}

	// Background materialization of incoming results, pinned to the build
	// snapshot: every read resolves against immutable relations, so this
	// runs concurrently with refresh and serving.
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
	tmp.Par = r.Ex.Par
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
	if prev := r.pending.Swap(&pendingSwap{
		plan: newPlan, built: built, builtAgg: builtAgg, carry: carry,
		gen: gen, base: base, epoch: snap.Epoch(),
	}); prev != nil {
		r.noteDiscard() // a newer build supersedes an un-installed one
	}
	res.Changed = true
	return res, nil
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

// noteDiscard counts one dropped pending swap.
func (r *Runtime) noteDiscard() {
	r.adaptMu.Lock()
	r.stats.Discards++
	r.adaptMu.Unlock()
}

// InstallPending installs an armed adaptation swap if its build epoch is
// still current — i.e. no refresh step was published since the build read
// its snapshot — and returns whether a swap was installed. Refresh calls it
// at entry, so with a driver that alternates Refresh and (possibly
// background) Adapt rounds, installs land exactly on cycle boundaries. It
// must only be called from the refresh writer's goroutine: the call point
// defines the epoch boundary at which readers atomically switch from the old
// materialized set to the new one.
//
// The install itself is cheap — map assembly over the already-built
// relations, a cache migration onto the prebuilt serving generation, and one
// snapshot publication; the expensive materialization already happened in
// the background. A stale pending swap (epoch moved on) is discarded, never
// installed: its built relations reflect a state the store has left behind.
func (r *Runtime) InstallPending() bool {
	ps := r.pending.Swap(nil)
	if ps == nil {
		return false
	}
	// Stale builds never install: a refresh batch or another install
	// published since the build moved the epoch (and an install re-keys the
	// materialization maps the carry map indexes).
	cur := r.Mt.Snap.Current()
	if cur.Epoch() != ps.epoch {
		r.noteDiscard()
		return false
	}

	// Assemble the new materialization maps: live relations for carryovers,
	// background builds for incoming results, base aliases for table nodes.
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
	snap := r.Mt.Snap.PublishSet(r.Ex.DB, newMat, &matSet{plan: ps.plan, gen: ps.gen})
	r.adaptMu.Lock()
	r.stats.Installs++
	r.stats.LastInstallEpoch = snap.Epoch()
	r.adaptMu.Unlock()
	return true
}

// WorkloadReport renders the tracked workload (empty before serving is
// enabled).
func (r *Runtime) WorkloadReport() string {
	if r.tracker == nil {
		return ""
	}
	return r.tracker.Report()
}
