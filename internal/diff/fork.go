package diff

import "repro/internal/volcano"

// Change describes one hypothetical materialization decision for Fork.
type Change struct {
	// Kind selects which of the fields below applies.
	Kind ChangeKind
	// EquivID is the target node for full/diff/index changes.
	EquivID int
	// Update is the update number for ChangeDiff.
	Update int
	// Col is the indexed column for ChangeIndex.
	Col string
}

// ChangeKind enumerates materialization decisions.
type ChangeKind int

const (
	// ChangeFull materializes the full result of a node.
	ChangeFull ChangeKind = iota
	// ChangeDiff temporarily materializes one differential of a node.
	ChangeDiff
	// ChangeIndex adds an index on a stored result.
	ChangeIndex
)

// Apply mutates a MatState with the change.
func (c Change) Apply(ms *MatState) {
	switch c.Kind {
	case ChangeFull:
		ms.Fulls.Full[c.EquivID] = true
	case ChangeDiff:
		ms.Diffs[DiffKey{c.EquivID, c.Update}] = true
	case ChangeIndex:
		ms.Fulls.Indexes[volcano.IndexKey{EquivID: c.EquivID, Col: c.Col}] = true
	}
}

// Fork implements the paper's incremental cost update (§6.2, optimization 1):
// it builds an Eval for the state "ev.MS plus change", carrying over every
// memoized plan whose cost provably cannot change, so that re-costing after
// a hypothetical materialization touches only the ancestors of the changed
// node:
//
//   - materializing a full result invalidates the full-result plans of its
//     ancestors at every state *and* their differential plans for every
//     update (the full result may appear as a fullChild of any differential);
//     the node's own entries are invalidated too because consumers may now
//     reuse it and its aggregate differentials may become maintainable;
//   - materializing the differential of a node with respect to update i
//     invalidates only the ancestors' differential plans for update i;
//   - adding an index behaves like a full materialization of the indexed
//     node (it can switch join algorithms in any consumer, and the merge
//     cost of the node itself).
func (ev *Eval) Fork(change Change) *Eval {
	ms := ev.MS.Clone()
	change.Apply(ms)
	out := ev.En.NewEval(ms)
	nE := len(ev.En.D.Equivs)
	ancestors := ev.En.AncestorsOf(change.EquivID)
	copy(out.diffMemo, ev.diffMemo)

	switch change.Kind {
	case ChangeDiff:
		// Full plans are unaffected entirely.
		for k, m := range ev.fullMemo {
			if m != nil {
				out.fullMemo[k] = m.Clone()
			}
		}
		base := (change.Update - 1) * nE
		for _, a := range ancestors {
			out.diffMemo[base+a] = nil
		}
	default: // ChangeFull, ChangeIndex
		for k, m := range ev.fullMemo {
			if m == nil {
				continue
			}
			c := m.Clone()
			c.Delete(change.EquivID)
			for _, a := range ancestors {
				c.Delete(a)
			}
			out.fullMemo[k] = c
		}
		for i := 1; i <= ev.En.U.N(); i++ {
			base := (i - 1) * nE
			out.diffMemo[base+change.EquivID] = nil
			for _, a := range ancestors {
				out.diffMemo[base+a] = nil
			}
		}
	}
	return out
}
