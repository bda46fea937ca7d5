package storage

import "sync"

// tupleIndex is the hash → ordinal index a delete-merge probes: over the
// whole-tuple hash column a relation carries (hashcol.go), it lists for each
// hash the ordinals carrying it, ascending. An insert-merge appends the new
// ordinals (hashView.extended); no delete rewrites it, since a delete only
// marks rows dead; a threshold compaction, which renumbers the ordinals,
// rebuilds it.
//
// A slot holds 32 bits of a hash and the highest ordinal carrying it; the
// ordinals of one slot form a ring through next, each pointing to the next
// higher one and the highest back to the lowest, so an append needs only the
// slot and a walk starts at next[tail]. Two hashes that agree on the 32 bits
// kept and collide in the table share a ring; like every hash collision,
// that surfaces only as a candidate the caller's value comparison rejects.
//
// The versions of one lineage share one index. A version probes it with its
// own length as the bound: an entry at or past it belongs to a descendant
// that extended the index behind it (in the tail of the arrays it claimed,
// merge.go) and is skipped, and since a walk ascends, it stops there. Only
// the version that owns its arrays' tail extends the index in place; any
// other derived version starts without one and builds its own on first use.
// The mutex serialises extensions with probes, so a published version can be
// probed (MinusCOW) while the writer extends its lineage.
type tupleIndex struct {
	mu    sync.Mutex
	slots []indexSlot
	next  []int32 // ordinal → the next higher ordinal of its ring (the highest: the lowest)
	used  int     // occupied slots
	shift uint    // 64 − log2(len(slots))
}

// indexSlot is one ring's entry: 32 bits of its hash and 1 + its highest
// ordinal (0: the slot is empty).
type indexSlot struct {
	tag  uint32
	tail int32
}

// newTupleIndex indexes a hash column (hashes[i] hashes ordinal i).
func newTupleIndex(hashes []uint64) *tupleIndex {
	ix := new(tupleIndex)
	ix.rebuild(hashes)
	return ix
}

// rebuild re-indexes the hash column from scratch, reusing the arrays. The
// table starts at most two thirds full, and grows past three quarters.
func (ix *tupleIndex) rebuild(hashes []uint64) {
	lg := uint(3)
	for 2<<lg < 3*len(hashes) {
		lg++
	}
	ix.shift = 64 - lg
	ix.slots = zeroed(ix.slots, 1<<lg)
	ix.next, ix.used = ix.next[:0], 0
	ix.add(hashes)
}

// extend appends the ordinals [from, from+len(hs)) with their hashes, and
// reports false (leaving the index alone) unless it covers exactly the
// ordinals below from.
func (ix *tupleIndex) extend(hs []uint64, from int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.next) != from {
		return false
	}
	ix.add(hs)
	return true
}

// add appends one ordinal per hash, after the ones already indexed.
func (ix *tupleIndex) add(hs []uint64) {
	for _, h := range hs {
		if 4*(ix.used+1) > 3*len(ix.slots) {
			ix.grow()
		}
		o := int32(len(ix.next))
		sl := &ix.slots[ix.slot(h)]
		if sl.tail == 0 {
			sl.tag = uint32(h)
			ix.next = append(ix.next, o)
			ix.used++
		} else {
			t := sl.tail - 1
			ix.next = append(ix.next, ix.next[t])
			ix.next[t] = o
		}
		sl.tail = o + 1
	}
}

// slot returns the slot holding the ring of h's kept bits, or the empty
// slot where it belongs. Both the table position and the identity come from
// the kept bits alone, so the table can grow without the hash column.
func (ix *tupleIndex) slot(h uint64) uint64 {
	tag := uint32(h)
	mask := uint64(len(ix.slots) - 1)
	s := (uint64(tag) * hashMix) >> ix.shift
	for ix.slots[s].tail != 0 && ix.slots[s].tag != tag {
		s = (s + 1) & mask
	}
	return s
}

// grow doubles the slot table; the rings do not move.
func (ix *tupleIndex) grow() {
	old := ix.slots
	ix.slots = make([]indexSlot, 2*len(old))
	ix.shift--
	for _, sl := range old {
		if sl.tail != 0 {
			ix.slots[ix.slot(uint64(sl.tag))] = sl
		}
	}
}

// first returns the lowest ordinal of h's ring, or -1.
func (ix *tupleIndex) first(h uint64) int32 {
	t := ix.slots[ix.slot(h)].tail - 1
	if t < 0 {
		return -1
	}
	return ix.next[t]
}

// after returns the next higher ordinal of o's ring, or -1 past the highest.
func (ix *tupleIndex) after(o int32) int32 {
	if n := ix.next[o]; n > o {
		return n
	}
	return -1
}
