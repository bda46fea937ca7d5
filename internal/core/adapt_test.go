package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/dag"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/viewdef"
)

// hotDriftQuery is expensive to answer cold and shares nothing with the
// ViewSet5 maintenance plan: the shape adaptation should start materializing
// once it dominates the observed workload.
const hotDriftQuery = `
	SELECT supplier.s_nationkey, SUM(partsupp.ps_supplycost) AS cost, COUNT(*)
	FROM partsupp, supplier
	WHERE partsupp.ps_suppkey = supplier.s_suppkey
	GROUP BY supplier.s_nationkey`

// cycle logs one update batch and refreshes (closing a tracker cycle).
func cycle(rt *Runtime, seed int64) {
	tpcd.LogUniformUpdates(rt.Plan.System.Cat, rt.Ex.DB, updatedRels, 4, seed)
	rt.Refresh()
}

func TestAdaptSwapsToObservedWorkload(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	cat := rt.Plan.System.Cat

	// Drift: the off-view aggregate dominates traffic for one cycle.
	for i := 0; i < 50; i++ {
		if _, err := rt.Query(hotDriftQuery); err != nil {
			t.Fatal(err)
		}
	}
	cycle(rt, 900)

	preEpoch := rt.Snapshots().Current().Epoch()
	res, err := rt.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewCost > res.KeepCost+1e-9 {
		t.Errorf("re-selection must not exceed keeping the prior set: %g > %g",
			res.NewCost, res.KeepCost)
	}
	if !res.Changed || len(res.Incoming) == 0 {
		t.Fatalf("a dominating uncovered query should change the materialized set: %+v", res)
	}
	st := rt.AdaptStats()
	if st.Installs != 1 {
		t.Fatalf("the round should install its swap before returning: %+v", st)
	}
	if st.LastInstallEpoch != preEpoch+1 {
		t.Errorf("install must publish the next epoch: %d, want %d", st.LastInstallEpoch, preEpoch+1)
	}
	cycle(rt, 901)

	// Post-swap: the hot query answers from a maintained result and stays
	// exact across further refreshes.
	qr, err := rt.Query(hotDriftQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan.String() != fmt.Sprintf("reuse(e%d)", qr.Plan.E.ID) {
		t.Errorf("adapted plan should reuse the new materialization, got %s", qr.Plan)
	}
	cd := dag.New(cat)
	root := cd.InsertExpr(viewdef.MustParse(cat, hotDriftQuery))
	want := recomputeAt(cd, root, rt.Snapshots().At(qr.Epoch))
	if !storage.EqualMultiset(qr.Rows, want) {
		t.Errorf("adapted answer diverges from recomputation at its epoch")
	}
	cycle(rt, 902)
	if err := rt.Verify(); err != nil {
		t.Fatalf("maintained state diverged after swap: %v", err)
	}
	qr2, err := rt.Query(hotDriftQuery)
	if err != nil {
		t.Fatal(err)
	}
	want2 := recomputeAt(cd, root, rt.Snapshots().At(qr2.Epoch))
	if !storage.EqualMultiset(qr2.Rows, want2) {
		t.Errorf("maintained hot result diverges after a post-swap refresh")
	}
	if !storage.EqualMultiset(qr.Rows, want) {
		t.Errorf("pre-refresh result rows mutated by the refresh (COW violation)")
	}
}

// TestAdaptInstallsInTheSameCall: a round that changes the plan has
// installed it by the time Adapt returns, with no refresh in between. The
// current snapshot carries the new plan and the runtime maintains under it,
// the install moved the epoch by exactly one, and a query at that epoch
// answers as recomputation does.
func TestAdaptInstallsInTheSameCall(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{})
	cat := rt.Plan.System.Cat
	for i := 0; i < 50; i++ {
		if _, err := rt.Query(hotDriftQuery); err != nil {
			t.Fatal(err)
		}
	}
	cycle(rt, 905)

	before := rt.Snapshots().Current()
	res, err := rt.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || len(res.Incoming) == 0 {
		t.Fatalf("a dominating uncovered query should change the materialized set: %+v", res)
	}
	cur := rt.Snapshots().Current()
	if cur.Epoch() != before.Epoch()+1 {
		t.Fatalf("epoch %d after the round, want %d", cur.Epoch(), before.Epoch()+1)
	}
	plan := setOf(cur).plan
	if plan == setOf(before).plan {
		t.Fatal("the current snapshot still carries the prior plan")
	}
	for _, key := range res.Incoming {
		if e := plan.System.Dag.Lookup(key); e == nil || !plan.Eval.MS.Fulls.Full[e.ID] {
			t.Fatalf("the current plan does not materialize incoming %s", key)
		}
	}
	if rt.Plan != plan {
		t.Fatal("the runtime maintains under a different plan than the current snapshot carries")
	}
	if n := rt.AdaptStats().Installs; n != 1 {
		t.Fatalf("%d installs after the round, want 1", n)
	}

	qr, err := rt.Query(hotDriftQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Epoch != cur.Epoch() {
		t.Fatalf("query answered at epoch %d, want %d", qr.Epoch, cur.Epoch())
	}
	cd := dag.New(cat)
	want := recomputeAt(cd, cd.InsertExpr(viewdef.MustParse(cat, hotDriftQuery)), cur)
	if !storage.EqualMultiset(qr.Rows, want) {
		t.Fatal("the answer after the install differs from recomputation at its epoch")
	}
}

func TestAdaptWithoutDriftReachesFixpoint(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{})
	// No drift: statistics never change. The first round may still arm a
	// justified swap — warm-started re-evaluation sees benefits that grew
	// after prior picks (e.g. an index on a result greedy materialized),
	// which the cold run's lazy heap assumes away (§6.2 monotonicity). Each
	// such round must clear the hysteresis gate and lower cost; within a few
	// rounds re-selection must reach a fixpoint and stop swapping.
	prevCost := -1.0
	for round := 0; round < 4; round++ {
		res, err := rt.Adapt()
		if err != nil {
			t.Fatal(err)
		}
		if res.NewCost > res.KeepCost+1e-9 {
			t.Fatalf("round %d: re-selection must not cost more than keeping: %g > %g",
				round, res.NewCost, res.KeepCost)
		}
		if prevCost >= 0 && res.NewCost > prevCost+1e-9 {
			t.Fatalf("round %d: cost rose across rounds: %g > %g", round, res.NewCost, prevCost)
		}
		prevCost = res.NewCost
		if !res.Changed {
			if round == 0 {
				t.Log("first round already stable")
			}
			return // fixpoint
		}
		if res.KeepCost-res.NewCost < 0.01*res.KeepCost {
			t.Fatalf("round %d: swap armed below the hysteresis threshold: keep %g new %g",
				round, res.KeepCost, res.NewCost)
		}
		if got := rt.AdaptStats().Installs; got != round+1 {
			t.Fatalf("round %d: %d installs after %d changed rounds", round, got, round+1)
		}
	}
	t.Fatal("no-drift adaptation failed to reach a fixpoint in 4 rounds")
}

func TestAdaptRequiresServing(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	if _, err := rt.Adapt(); err == nil {
		t.Fatal("Adapt before EnableServing should error")
	}
}

// TestAdaptiveConcurrentServing is the adaptation stress test (run under
// -race in CI): readers issue a drifting query mix while the writer
// interleaves refresh cycles with adaptation rounds and swap installs.
// Every sampled result must equal recomputation at the step boundary its
// epoch names, and results retired by a swap must never appear in any
// snapshot published at or after the install — i.e. swapped-out views are
// unreachable once retired, while already-planned queries finish on their
// old epochs untouched.
func TestAdaptiveConcurrentServing(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	cat := rt.Plan.System.Cat

	mixA := serveQueries
	mixB := []string{hotDriftQuery,
		`SELECT * FROM partsupp, supplier
		 WHERE partsupp.ps_suppkey = supplier.s_suppkey`,
		serveQueries[0]}
	queries := append(append([]string{}, mixA...), mixB...)

	type sample struct {
		sqlIdx int
		epoch  int64
		rows   *storage.Relation
	}
	const readers = 4
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
		phase   = make(chan int, 1)
		done    = make(chan struct{})
	)
	currentMix := func(p int) []int {
		if p == 0 {
			return []int{0, 1, 2, 3}
		}
		return []int{len(mixA), len(mixA) + 1, len(mixA) + 2}
	}
	var phaseMu sync.Mutex
	activePhase := 0
	_ = phase
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				phaseMu.Lock()
				p := activePhase
				phaseMu.Unlock()
				mix := currentMix(p)
				qi := mix[(i+w)%len(mix)]
				res, err := rt.Query(queries[qi])
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				mu.Lock()
				if len(samples) < 4000 {
					samples = append(samples, sample{qi, res.Epoch, res.Rows})
				}
				mu.Unlock()
			}
		}(w)
	}

	// Writer: two cycles of mix A, adapt, two cycles of mix B (installing
	// the swap at the first boundary), adapt again, one more cycle.
	for c := 0; c < 2; c++ {
		cycle(rt, int64(930+c))
	}
	if _, err := rt.Adapt(); err != nil {
		t.Error(err)
	}
	phaseMu.Lock()
	activePhase = 1
	phaseMu.Unlock()
	for c := 0; c < 2; c++ {
		cycle(rt, int64(940+c))
	}
	if _, err := rt.Adapt(); err != nil {
		t.Error(err)
	}
	cycle(rt, 950)
	close(done)
	wg.Wait()

	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	st := rt.AdaptStats()
	if st.Installs == 0 {
		t.Fatalf("drifted traffic should have installed at least one swap: %+v", st)
	}

	// Consistency: every sample equals recomputation at its claimed epoch.
	cd := dag.New(cat)
	roots := make([]*dag.Equiv, len(queries))
	for i, sql := range queries {
		roots[i] = cd.InsertExpr(viewdef.MustParse(cat, sql))
	}
	type key struct {
		sqlIdx int
		epoch  int64
	}
	want := make(map[key]*storage.Relation)
	checked := 0
	for _, s := range samples {
		k := key{s.sqlIdx, s.epoch}
		w, ok := want[k]
		if !ok {
			snap := rt.Snapshots().At(s.epoch)
			if snap == nil {
				t.Fatalf("result claims epoch %d, never published", s.epoch)
			}
			w = recomputeAt(cd, roots[s.sqlIdx], snap)
			want[k] = w
		}
		if !storage.EqualMultiset(s.rows, w) {
			t.Fatalf("torn read: query %d at epoch %d has %d rows, recomputation %d",
				s.sqlIdx, s.epoch, s.rows.Len(), w.Len())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no samples collected")
	}

	// Retirement: a relation dropped by a swap must be absent from every
	// snapshot at or after the install epoch (old snapshots may keep it —
	// that is exactly how in-flight readers stay consistent).
	hist := rt.Snapshots().History()
	retirements := installsIn(hist)
	if len(retirements) == 0 {
		t.Fatal("installs happened but nothing was recorded as retired")
	}
	checkRetiredGone(t, hist, retirements)
	retired := 0
	for _, d := range retirements {
		retired += len(d.rels)
	}
	t.Logf("checked %d samples over %d states; %d installs, retired sets %d holding %d relations",
		checked, len(want), st.Installs, len(retirements), retired)
}

// installDrop is what one adaptation install retired: every relation the
// snapshot before it stored and it does not, with its canonical key.
type installDrop struct {
	epoch int64
	rels  map[*storage.Relation]string
}

// installsIn derives the installs of a retained history (a snapshot whose
// materialized set differs from its predecessor's) and what each retired.
func installsIn(hist []*storage.Snapshot) []installDrop {
	var out []installDrop
	for i := 1; i < len(hist); i++ {
		prev, cur := hist[i-1], hist[i]
		if setOf(prev) == setOf(cur) {
			continue
		}
		kept := make(map[*storage.Relation]bool)
		for _, rel := range cur.Mats() {
			kept[rel] = true
		}
		d := installDrop{epoch: cur.Epoch(), rels: make(map[*storage.Relation]string)}
		for id, rel := range prev.Mats() {
			if !kept[rel] {
				d.rels[rel] = setOf(prev).plan.System.Dag.Equivs[id].Key
			}
		}
		out = append(out, d)
	}
	return out
}

// checkRetiredGone fails if a relation an install retired is published by
// any snapshot of hist at or after that install's epoch.
func checkRetiredGone(t *testing.T, hist []*storage.Snapshot, drops []installDrop) {
	t.Helper()
	for _, d := range drops {
		for _, snap := range hist {
			if snap.Epoch() < d.epoch {
				continue
			}
			for id, rel := range snap.Mats() {
				if key, ok := d.rels[rel]; ok {
					t.Fatalf("retired relation %s (install epoch %d) still published as e%d at epoch %d",
						key, d.epoch, id, snap.Epoch())
				}
			}
		}
	}
}

// TestHeldSnapshotPlansAfterInstall: a snapshot carries the materialized set
// it was maintained under, so a reader holding one plans with that set's
// generation however many installs have published since, on a store that
// retains only the current snapshot. Once the reader lets go, nothing else
// keeps the set alive.
func TestHeldSnapshotPlansAfterInstall(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	cat := rt.Plan.System.Cat
	// Observed cardinalities re-price every round, so each one installs a
	// swap even when the chosen set is unchanged: one install per cycle.
	rt.EnableFeedback()
	rt.EnableServing(ServeOptions{})
	first := rt.Snapshots().Current()
	for i := 0; rt.AdaptStats().Installs < 2; i++ {
		if i == 8 {
			t.Fatalf("%d cycles installed %d swaps, want 2", i, rt.AdaptStats().Installs)
		}
		cycle(rt, int64(960+i))
		if _, err := rt.Adapt(); err != nil {
			t.Fatal(err)
		}
	}

	res, ex, _, err := rt.serverIfEnabled().plan(hotDriftQuery, first, nil)
	if err != nil {
		t.Fatalf("planning at held epoch %d: %v", first.Epoch(), err)
	}
	cd := dag.New(cat)
	want := recomputeAt(cd, cd.InsertExpr(viewdef.MustParse(cat, hotDriftQuery)), first)
	if res.Epoch != first.Epoch() || !storage.EqualMultiset(ex.Run(res.Plan), want) {
		t.Fatalf("answer at held epoch %d (claims %d) differs from its recomputation", first.Epoch(), res.Epoch)
	}

	set := weak.Make(setOf(first))
	first = nil
	runtime.GC()
	if set.Value() != nil {
		t.Fatal("the first materialized set outlived every snapshot that referred to it")
	}
}

// TestRetiredResultsVanishAfterInstall drives the two-phase drift of the
// adaptive-serving benchmark, with one reader querying the current phase's
// mix throughout: every answer equals recomputation at its epoch, at least
// one install retires a stored result, and no retired result is published
// at or after the epoch of the install that dropped it.
func TestRetiredResultsVanishAfterInstall(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	rt.EnableServing(ServeOptions{RetainHistory: true})
	cat := rt.Plan.System.Cat
	phases := tpcd.DriftServeMix(11)

	type answer struct {
		sql string
		res *QueryResult
	}
	var (
		mu      sync.Mutex
		answers []answer
		phase   atomic.Int32
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	// Every writer-side answer is checked; the reader's are sampled.
	ask := func(sql string, keep bool) error {
		res, err := rt.Query(sql)
		if err != nil {
			return err
		}
		if keep {
			mu.Lock()
			answers = append(answers, answer{sql, res})
			mu.Unlock()
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			mix := phases[phase.Load()]
			if err := ask(mix[i%len(mix)].SQL, i%4 == 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for p, mix := range phases {
		phase.Store(int32(p))
		for round := 0; round < 4; round++ {
			for _, q := range mix {
				for n := 0; n < int(q.Weight); n++ {
					if err := ask(q.SQL, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			cycle(rt, int64(1000+10*p+round))
			if _, err := rt.Adapt(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	hist := rt.Snapshots().History()
	drops := installsIn(hist)
	retired, perInstall := 0, map[int64]int{}
	for _, d := range drops {
		retired += len(d.rels)
		perInstall[d.epoch] = len(d.rels)
	}
	if retired == 0 {
		t.Fatalf("%d installs retired no stored result: %+v", len(drops), rt.AdaptStats())
	}
	checkRetiredGone(t, hist, drops)

	cd := dag.New(cat)
	roots := map[string]*dag.Equiv{}
	for _, q := range phases[0] {
		roots[q.SQL] = cd.InsertExpr(viewdef.MustParse(cat, q.SQL))
	}
	type key struct {
		sql   string
		epoch int64
	}
	want := map[key]*storage.Relation{}
	for _, a := range answers {
		k := key{a.sql, a.res.Epoch}
		if want[k] == nil {
			want[k] = recomputeAt(cd, roots[a.sql], rt.Snapshots().At(a.res.Epoch))
		}
		if !storage.EqualMultiset(a.res.Rows, want[k]) {
			t.Fatalf("answer at epoch %d differs from its recomputation:\n%s", a.res.Epoch, a.sql)
		}
	}
	t.Logf("%d answers over %d (query, epoch) states; installs (epoch: results retired) %v", len(answers), len(want), perInstall)
}
