package volcano

import (
	"fmt"
	"strings"

	"repro/internal/dag"
)

// Explain renders the plan as an indented multi-line tree with estimated
// rows and cumulative cost per node, in the style of EXPLAIN output:
//
//	hash join [l_orderkey=o_orderkey]            rows=60000  cost=2.310
//	├─ scan lineitem                             rows=600000 cost=1.950
//	└─ select [o_orderdate<255]                  rows=15000  cost=0.310
//	   └─ scan orders                            rows=150000 cost=0.300
func Explain(p *PlanNode) string {
	var b strings.Builder
	explainNode(&b, p, "", true, true)
	return b.String()
}

func explainNode(b *strings.Builder, p *PlanNode, prefix string, isLast, isRoot bool) {
	connector := ""
	childPrefix := prefix
	if !isRoot {
		if isLast {
			connector = "└─ "
			childPrefix = prefix + "   "
		} else {
			connector = "├─ "
			childPrefix = prefix + "│  "
		}
	}
	label := describePlanNode(p)
	line := prefix + connector + label
	pad := 52 - len([]rune(line))
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(b, "%s%s rows=%.0f cost=%.3f\n", line, strings.Repeat(" ", pad), p.Rows, p.CumCost)
	for i, c := range p.Children {
		explainNode(b, c, childPrefix, i == len(p.Children)-1, false)
	}
}

func describePlanNode(p *PlanNode) string {
	switch p.Access {
	case Reuse:
		return fmt.Sprintf("reuse materialized e%d", p.E.ID)
	case Probe:
		return fmt.Sprintf("index probe e%d", p.E.ID)
	case Delta:
		return fmt.Sprintf("δ%d %s", p.Update, p.Op.Table)
	case Shared:
		return fmt.Sprintf("shared δ%d(e%d)", p.Update, p.E.ID)
	}
	switch p.Op.Kind {
	case dag.OpScan:
		return "scan " + p.Op.Table
	case dag.OpJoin:
		return fmt.Sprintf("%s join [%s]", p.Algo, p.Op.Pred.String())
	case dag.OpSelect:
		return fmt.Sprintf("select [%s]", p.Op.Pred.String())
	case dag.OpProject:
		return "project"
	case dag.OpAggregate:
		gs := make([]string, len(p.Op.GroupBy))
		for i, g := range p.Op.GroupBy {
			gs[i] = g.QName()
		}
		return "aggregate [" + strings.Join(gs, ",") + "]"
	case dag.OpUnion:
		return "union all"
	case dag.OpMinus:
		return "minus"
	case dag.OpDedup:
		return "dedup"
	default:
		return p.Op.Kind.String()
	}
}
