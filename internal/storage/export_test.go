package storage

// Hooks for the external tests of this package (package storage_test).

// ForgeHashes installs hs (hs[i] for row i) as r's whole-tuple hash column, in
// place of Tuple.Hash: the merges then carry, probe and compact it like a real
// one, so a test can force hash collisions between distinct tuples.
func ForgeHashes(r *Relation, hs []uint64) {
	r.part.Store(&hashView{hashes: hs})
}

// CompactShare is the delete-merge's compaction threshold (compactShare).
const CompactShare = compactShare
