package main

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// updateGen is the benchmark's stationary update generator. Cycle k of a
// seed is, per updated relation, pct % fresh-key inserts (the insert ops of
// tpcd.NewUpdateStream, so rows look like every other batch of this repo)
// followed by the same number of deletes sampled without replacement from
// the relation's current rows. tpcd.LogUniformUpdates inserts twice what it
// deletes, so a window of 100 cycles would grow the database ~12x and every
// percentile would measure drift; here each relation's row count is constant
// and cycle k is the same delta on every commit.
type updateGen struct {
	cat   *catalog.Catalog
	rels  []string
	pct   float64
	seed  int64
	cycle int64
}

func newUpdateGen(cat *catalog.Catalog, rels []string, pct float64, seed int64) *updateGen {
	// tpcd derives a batch's fresh-key range from its seed as
	// 2^40 + seed*2^20; keeping the run seed below 2^30 and the cycle below
	// 2^12 keeps every (seed, cycle) range disjoint and inside int64.
	return &updateGen{cat: cat, rels: rels, pct: pct, seed: (seed & (1<<30 - 1)) << 12}
}

// next returns the ops of the next cycle against the given state, which must
// not change while next runs (hand it a snapshot's database when a writer is
// live).
func (g *updateGen) next(db *storage.Database) []ingest.Op {
	batch := g.seed + g.cycle&(1<<12-1)
	g.cycle++
	rng := rand.New(rand.NewSource(batch ^ 0x5bd1e995))
	var inserts []ingest.Op
	s := tpcd.NewUpdateStream(g.cat, db, g.rels, g.pct, batch)
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		if !op.Del {
			inserts = append(inserts, op)
		}
	}
	ops := make([]ingest.Op, 0, 2*len(inserts))
	i := 0
	for _, name := range g.rels {
		n := 0
		for ; i < len(inserts) && inserts[i].Rel == name; i++ {
			ops = append(ops, inserts[i])
			n++
		}
		rows := db.MustRelation(name).Rows()
		for _, j := range rng.Perm(len(rows))[:n] {
			ops = append(ops, ingest.Op{Rel: name, Del: true, Tuple: rows[j].Clone()})
		}
	}
	return ops
}

// logOps stages a cycle's ops as pending deltas on the live database (the
// batch workloads' path; the durable workload streams them through
// Runtime.Ingest instead).
func logOps(db *storage.Database, ops []ingest.Op) {
	for _, op := range ops {
		if op.Del {
			db.LogDelete(op.Rel, op.Tuple)
		} else {
			db.LogInsert(op.Rel, op.Tuple)
		}
	}
}

// rowCounts snapshots every relation's size.
func rowCounts(db *storage.Database) map[string]int {
	out := map[string]int{}
	for _, n := range db.Names() {
		out[n] = db.MustRelation(n).Len()
	}
	return out
}
