package diff

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/volcano"
)

// TestPlanLowering holds DiffPlan.Plan to its rules on every differential
// of the three-way view, under two materialization states: one with a
// temporarily materialized differential (so reuse occurs) and one with an
// extra index (so index nested loops meet hash joins). A scan lowers to a
// Delta leaf and a reuse to a Shared leaf; a hash join lowers to
// [δ, FullInputs[0]] and an index nested-loop join to [δ, Probe], the probe
// leaf carrying the stored side's pre-update row estimate. Every lowered
// differential node keeps the plan's node, update number and estimate.
func TestPlanLowering(t *testing.T) {
	en, root := engine(t, 5)
	var oc, ordersEq *dag.Equiv
	for _, e := range en.D.Equivs {
		switch {
		case e.IsTable && e.Tables[0] == "orders":
			ordersEq = e
		case e.Ops[0].Kind == dag.OpJoin && len(e.Tables) == 2 &&
			e.DependsOn("orders") && e.DependsOn("customer"):
			oc = e
		}
	}
	reuse := rootMat(en, root)
	reuse.Diffs[DiffKey{EquivID: oc.ID, Update: 1}] = true
	indexed := rootMat(en, root)
	indexed.Fulls.Indexes[volcano.IndexKey{EquivID: ordersEq.ID, Col: "orders.o_cust"}] = true

	seen := map[string]int{}
	var check func(p *DiffPlan, n *volcano.PlanNode)
	check = func(p *DiffPlan, n *volcano.PlanNode) {
		t.Helper()
		if n.E != p.E || n.Update != p.Update || n.Rows != p.Rows {
			t.Fatalf("%s lowered to e%d update %d rows %g", p, n.E.ID, n.Update, n.Rows)
		}
		switch {
		case p.Reused:
			if n.Access != volcano.Shared || len(n.Children) != 0 {
				t.Fatalf("%s lowered to access %d with %d children", p, n.Access, len(n.Children))
			}
			seen["shared"]++
			return
		case p.Op.Kind == dag.OpScan:
			if n.Access != volcano.Delta || n.Op != p.Op || len(n.Children) != 0 {
				t.Fatalf("%s lowered to access %d with %d children", p, n.Access, len(n.Children))
			}
			seen["delta"]++
			return
		}
		if n.Access != volcano.Compute || n.Op != p.Op || n.Algo != p.Algo {
			t.Fatalf("%s lowered to access %d op %v algo %s", p, n.Access, n.Op, n.Algo)
		}
		for k, c := range p.DiffChildren {
			check(c, n.Children[k])
		}
		if p.Op.Kind != dag.OpJoin {
			if len(n.Children) != len(p.DiffChildren) {
				t.Fatalf("%s lowered to %d children, want its %d differential inputs",
					p, len(n.Children), len(p.DiffChildren))
			}
			return
		}
		if len(n.Children) != 2 || len(p.FullInputs) != 1 || n.Children[1] != p.FullInputs[0] {
			t.Fatalf("join %s must lower to [δ, FullInputs[0]]", p)
		}
		full := n.Children[1]
		switch p.Algo {
		case volcano.AlgoHash:
			if full.Access == volcano.Probe || full.Update != 0 {
				t.Fatalf("hash join %s has full side access %d update %d", p, full.Access, full.Update)
			}
			seen["hash"]++
		case volcano.AlgoINL:
			oth := p.Op.Children[0]
			if oth == p.DiffChildren[0].E {
				oth = p.Op.Children[1]
			}
			want := en.szState[p.Update-1].Rows(oth)
			if full.Access != volcano.Probe || full.E != oth || full.Rows != want {
				t.Fatalf("INL join %s: probe leaf e%d access %d rows %g, want probe of e%d rows %g",
					p, full.E.ID, full.Access, full.Rows, oth.ID, want)
			}
			seen["inl"]++
		}
	}
	for _, ms := range []*MatState{reuse, indexed} {
		ev := en.NewEval(ms)
		for _, e := range en.D.Equivs {
			for i := 1; i <= en.U.N(); i++ {
				if p := ev.DiffAccess(e, i); !p.Empty {
					check(p, p.Plan())
				}
			}
		}
	}
	for _, kind := range []string{"delta", "shared", "hash", "inl"} {
		if seen[kind] == 0 {
			t.Errorf("no %s lowering was exercised: %v", kind, seen)
		}
	}
}

// TestPlanLoweringRefusesMinusAndDedup: differentials through minus and
// dedup are not executable, and the lowering says so instead of producing a
// plan.
func TestPlanLoweringRefusesMinusAndDedup(t *testing.T) {
	_, root := engine(t, 5)
	for _, kind := range []dag.OpKind{dag.OpMinus, dag.OpDedup} {
		p := &DiffPlan{E: root, Update: 1, Op: &dag.Op{Kind: kind}}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lowering a %s differential did not panic", kind)
				}
			}()
			p.Plan()
		}()
	}
}
