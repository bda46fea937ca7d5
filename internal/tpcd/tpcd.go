// Package tpcd provides the TPC-D benchmark substrate the paper evaluates
// on (§7.1): the eight-table schema with statistics at a configurable scale
// factor (the paper uses 0.1 ≈ 100 MB), primary-key indexes, foreign keys, a
// row-level data generator for small scale factors (used by the execution
// tests — the paper itself had no execution engine), the benchmark view
// sets, and the update model (inserts of u% of each relation, deletes of
// u/2 %).
package tpcd

import (
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

// Days spans the 7-year TPC-D date range as integer day numbers.
const Days = 2556

// Rows per table at scale factor 1.0.
var sf1Rows = map[string]int64{
	"region":   5,
	"nation":   25,
	"supplier": 10_000,
	"customer": 150_000,
	"part":     200_000,
	"partsupp": 800_000,
	"orders":   1_500_000,
	"lineitem": 6_000_000,
}

// TableNames lists the schema in dependency (load) order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}

// scaled returns the row count of a table at a scale factor; region and
// nation are fixed-size per the TPC-D specification.
func scaled(name string, sf float64) int64 {
	base := sf1Rows[name]
	if name == "region" || name == "nation" {
		return base
	}
	n := int64(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// NewCatalog builds the TPC-D catalog at the given scale factor, optionally
// declaring the primary-key indexes the paper assumes by default ("for each
// of the TPC-D relations, an index is present on the primary key").
func NewCatalog(sf float64, withPKIndexes bool) *catalog.Catalog {
	cat := catalog.New()
	rows := func(t string) int64 { return scaled(t, sf) }

	cat.AddTable(&catalog.Table{
		Name: "region",
		Columns: []catalog.Column{
			{Name: "r_regionkey", Type: catalog.Int, Width: 8},
			{Name: "r_name", Type: catalog.String, Width: 12},
		},
		PrimaryKey: []string{"r_regionkey"},
		Stats: catalog.TableStats{Rows: rows("region"), Columns: map[string]catalog.ColumnStats{
			"r_regionkey": {Distinct: 5, Min: 0, Max: 4},
		}},
	})
	cat.AddTable(&catalog.Table{
		Name: "nation",
		Columns: []catalog.Column{
			{Name: "n_nationkey", Type: catalog.Int, Width: 8},
			{Name: "n_name", Type: catalog.String, Width: 12},
			{Name: "n_regionkey", Type: catalog.Int, Width: 8},
		},
		PrimaryKey: []string{"n_nationkey"},
		Stats: catalog.TableStats{Rows: rows("nation"), Columns: map[string]catalog.ColumnStats{
			"n_nationkey": {Distinct: 25, Min: 0, Max: 24},
			"n_regionkey": {Distinct: 5, Min: 0, Max: 4},
		}},
	})
	// String "name" columns carry the full unmodeled payload of each TPC-D
	// row (address, phone, comment, …) in their width, so that per-table
	// volumes match the spec (~100 MB total at SF 0.1) and buffer-size
	// effects reproduce. The generator fills them with short values; only
	// the cost model reads the widths.
	cat.AddTable(&catalog.Table{
		Name: "supplier",
		Columns: []catalog.Column{
			{Name: "s_suppkey", Type: catalog.Int, Width: 8},
			{Name: "s_name", Type: catalog.String, Width: 120},
			{Name: "s_nationkey", Type: catalog.Int, Width: 8},
			{Name: "s_acctbal", Type: catalog.Float, Width: 8},
		},
		PrimaryKey: []string{"s_suppkey"},
		Stats: catalog.TableStats{Rows: rows("supplier"), Columns: map[string]catalog.ColumnStats{
			"s_suppkey":   {Distinct: rows("supplier"), Min: 1, Max: float64(rows("supplier"))},
			"s_nationkey": {Distinct: 25, Min: 0, Max: 24},
			"s_acctbal":   {Distinct: rows("supplier") / 2, Min: -999, Max: 9999},
		}},
	})
	cat.AddTable(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: catalog.Int, Width: 8},
			{Name: "c_name", Type: catalog.String, Width: 140},
			{Name: "c_nationkey", Type: catalog.Int, Width: 8},
			{Name: "c_mktsegment", Type: catalog.Int, Width: 8},
			{Name: "c_acctbal", Type: catalog.Float, Width: 8},
		},
		PrimaryKey: []string{"c_custkey"},
		Stats: catalog.TableStats{Rows: rows("customer"), Columns: map[string]catalog.ColumnStats{
			"c_custkey":    {Distinct: rows("customer"), Min: 1, Max: float64(rows("customer"))},
			"c_nationkey":  {Distinct: 25, Min: 0, Max: 24},
			"c_mktsegment": {Distinct: 5, Min: 0, Max: 4},
			"c_acctbal":    {Distinct: rows("customer") / 2, Min: -999, Max: 9999},
		}},
	})
	cat.AddTable(&catalog.Table{
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: catalog.Int, Width: 8},
			{Name: "p_name", Type: catalog.String, Width: 100},
			{Name: "p_type", Type: catalog.Int, Width: 8},
			{Name: "p_size", Type: catalog.Int, Width: 8},
			{Name: "p_retailprice", Type: catalog.Float, Width: 8},
		},
		PrimaryKey: []string{"p_partkey"},
		Stats: catalog.TableStats{Rows: rows("part"), Columns: map[string]catalog.ColumnStats{
			"p_partkey":     {Distinct: rows("part"), Min: 1, Max: float64(rows("part"))},
			"p_type":        {Distinct: 150, Min: 0, Max: 149},
			"p_size":        {Distinct: 50, Min: 1, Max: 50},
			"p_retailprice": {Distinct: rows("part") / 4, Min: 900, Max: 2100},
		}},
	})
	cat.AddTable(&catalog.Table{
		Name: "partsupp",
		Columns: []catalog.Column{
			{Name: "ps_partkey", Type: catalog.Int, Width: 8},
			{Name: "ps_suppkey", Type: catalog.Int, Width: 8},
			{Name: "ps_supplycost", Type: catalog.Float, Width: 8},
			{Name: "ps_availqty", Type: catalog.Int, Width: 8},
			{Name: "ps_comment", Type: catalog.String, Width: 120},
		},
		PrimaryKey: []string{"ps_partkey", "ps_suppkey"},
		Stats: catalog.TableStats{Rows: rows("partsupp"), Columns: map[string]catalog.ColumnStats{
			"ps_partkey":    {Distinct: rows("part"), Min: 1, Max: float64(rows("part"))},
			"ps_suppkey":    {Distinct: rows("supplier"), Min: 1, Max: float64(rows("supplier"))},
			"ps_supplycost": {Distinct: 1000, Min: 1, Max: 1000},
			"ps_availqty":   {Distinct: 9999, Min: 1, Max: 9999},
		}},
	})
	cat.AddTable(&catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int, Width: 8},
			{Name: "o_custkey", Type: catalog.Int, Width: 8},
			{Name: "o_orderstatus", Type: catalog.Int, Width: 8},
			{Name: "o_totalprice", Type: catalog.Float, Width: 8},
			{Name: "o_orderdate", Type: catalog.Date, Width: 8},
			{Name: "o_clerk", Type: catalog.String, Width: 70},
		},
		PrimaryKey: []string{"o_orderkey"},
		Stats: catalog.TableStats{Rows: rows("orders"), Columns: map[string]catalog.ColumnStats{
			"o_orderkey":    {Distinct: rows("orders"), Min: 1, Max: float64(rows("orders"))},
			"o_custkey":     {Distinct: rows("customer"), Min: 1, Max: float64(rows("customer"))},
			"o_orderstatus": {Distinct: 3, Min: 0, Max: 2},
			"o_totalprice":  {Distinct: rows("orders") / 2, Min: 800, Max: 500000},
			"o_orderdate":   {Distinct: Days, Min: 0, Max: Days - 1},
		}},
	})
	cat.AddTable(&catalog.Table{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_orderkey", Type: catalog.Int, Width: 8},
			{Name: "l_partkey", Type: catalog.Int, Width: 8},
			{Name: "l_suppkey", Type: catalog.Int, Width: 8},
			{Name: "l_quantity", Type: catalog.Float, Width: 8},
			{Name: "l_extendedprice", Type: catalog.Float, Width: 8},
			{Name: "l_discount", Type: catalog.Float, Width: 8},
			{Name: "l_shipdate", Type: catalog.Date, Width: 8},
			{Name: "l_comment", Type: catalog.String, Width: 60},
		},
		PrimaryKey: []string{"l_orderkey"},
		Stats: catalog.TableStats{Rows: rows("lineitem"), Columns: map[string]catalog.ColumnStats{
			"l_orderkey":      {Distinct: rows("orders"), Min: 1, Max: float64(rows("orders"))},
			"l_partkey":       {Distinct: rows("part"), Min: 1, Max: float64(rows("part"))},
			"l_suppkey":       {Distinct: rows("supplier"), Min: 1, Max: float64(rows("supplier"))},
			"l_quantity":      {Distinct: 50, Min: 1, Max: 50},
			"l_extendedprice": {Distinct: rows("lineitem") / 4, Min: 900, Max: 105000},
			"l_discount":      {Distinct: 11, Min: 0, Max: 10},
			"l_shipdate":      {Distinct: Days, Min: 0, Max: Days - 1},
		}},
	})

	for _, fk := range []catalog.ForeignKey{
		{Table: "nation", Columns: []string{"n_regionkey"}, RefTable: "region", RefColumns: []string{"r_regionkey"}},
		{Table: "supplier", Columns: []string{"s_nationkey"}, RefTable: "nation", RefColumns: []string{"n_nationkey"}},
		{Table: "customer", Columns: []string{"c_nationkey"}, RefTable: "nation", RefColumns: []string{"n_nationkey"}},
		{Table: "partsupp", Columns: []string{"ps_partkey"}, RefTable: "part", RefColumns: []string{"p_partkey"}},
		{Table: "partsupp", Columns: []string{"ps_suppkey"}, RefTable: "supplier", RefColumns: []string{"s_suppkey"}},
		{Table: "orders", Columns: []string{"o_custkey"}, RefTable: "customer", RefColumns: []string{"c_custkey"}},
		{Table: "lineitem", Columns: []string{"l_orderkey"}, RefTable: "orders", RefColumns: []string{"o_orderkey"}},
		{Table: "lineitem", Columns: []string{"l_partkey"}, RefTable: "part", RefColumns: []string{"p_partkey"}},
		{Table: "lineitem", Columns: []string{"l_suppkey"}, RefTable: "supplier", RefColumns: []string{"s_suppkey"}},
	} {
		cat.AddForeignKey(fk)
	}
	if withPKIndexes {
		for _, t := range TableNames() {
			cat.AddIndex(catalog.Index{
				Name: "pk_" + t, Table: t,
				Columns: cat.MustTable(t).PrimaryKey, Unique: true,
			})
		}
	}
	return cat
}

// Generate populates a database with synthetic rows matching the catalog
// statistics at the given scale factor. All monetary values are integral so
// incremental float arithmetic is exact under the execution engine.
func Generate(cat *catalog.Catalog, sf float64, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	for _, name := range TableNames() {
		t := cat.MustTable(name)
		r := db.Create(name, algebra.TableSchema(t, name))
		// Pre-size the bulk load from the catalog's cardinality estimate so
		// the row slice does not regrow as the table fills.
		if t.Stats.Rows > 0 {
			r.Reserve(int(t.Stats.Rows))
		}
	}
	n := func(t string) int64 { return scaled(t, sf) }
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}

	for i := int64(0); i < n("region"); i++ {
		db.MustRelation("region").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewString("region-" + names[i%5])})
	}
	for i := int64(0); i < n("nation"); i++ {
		db.MustRelation("nation").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewString("nation-" + names[i%5]),
			algebra.NewInt(i % 5)})
	}
	for i := int64(1); i <= n("supplier"); i++ {
		db.MustRelation("supplier").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewString("supp"),
			algebra.NewInt(int64(rng.Intn(25))),
			algebra.NewFloat(float64(rng.Intn(10999) - 999))})
	}
	for i := int64(1); i <= n("customer"); i++ {
		db.MustRelation("customer").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewString("cust"),
			algebra.NewInt(int64(rng.Intn(25))),
			algebra.NewInt(int64(rng.Intn(5))),
			algebra.NewFloat(float64(rng.Intn(10999) - 999))})
	}
	for i := int64(1); i <= n("part"); i++ {
		db.MustRelation("part").Insert(algebra.Tuple{
			algebra.NewInt(i), algebra.NewString("part"),
			algebra.NewInt(int64(rng.Intn(150))),
			algebra.NewInt(int64(1 + rng.Intn(50))),
			algebra.NewFloat(float64(900 + rng.Intn(1200)))})
	}
	for i := int64(0); i < n("partsupp"); i++ {
		db.MustRelation("partsupp").Insert(algebra.Tuple{
			algebra.NewInt(1 + rng.Int63n(n("part"))),
			algebra.NewInt(1 + rng.Int63n(n("supplier"))),
			algebra.NewFloat(float64(1 + rng.Intn(1000))),
			algebra.NewInt(int64(1 + rng.Intn(9999))),
			algebra.NewString("ps")})
	}
	for i := int64(1); i <= n("orders"); i++ {
		db.MustRelation("orders").Insert(algebra.Tuple{
			algebra.NewInt(i),
			algebra.NewInt(1 + rng.Int63n(n("customer"))),
			algebra.NewInt(int64(rng.Intn(3))),
			algebra.NewFloat(float64(800 + rng.Intn(499200))),
			algebra.NewDate(int64(rng.Intn(Days))),
			algebra.NewString("clerk")})
	}
	for i := int64(0); i < n("lineitem"); i++ {
		db.MustRelation("lineitem").Insert(algebra.Tuple{
			algebra.NewInt(1 + rng.Int63n(n("orders"))),
			algebra.NewInt(1 + rng.Int63n(n("part"))),
			algebra.NewInt(1 + rng.Int63n(n("supplier"))),
			algebra.NewFloat(float64(1 + rng.Intn(50))),
			algebra.NewFloat(float64(900 + rng.Intn(104100))),
			algebra.NewFloat(float64(rng.Intn(11))),
			algebra.NewDate(int64(rng.Intn(Days))),
			algebra.NewString("li")})
	}
	return db
}

// LogUniformUpdates logs pct% inserts and pct/2 % deletes on every relation
// in rels, matching the paper's update model. The batch is a pure function
// of (database state, seed): inserted keys are drawn from a per-seed range,
// so identically built databases receiving the same seeds stay byte-
// identical across processes and runs — the property the parallel-refresh
// golden tests compare against. Distinct batches on one database must use
// distinct seeds, or their fresh keys would collide.
func LogUniformUpdates(cat *catalog.Catalog, db *storage.Database, rels []string, pct float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nextKey := syntheticKeyBase(seed)
	for _, name := range rels {
		rel := db.MustRelation(name)
		nIns := int(float64(rel.Len()) * pct / 100)
		nDel := nIns / 2
		for j := 0; j < nIns; j++ {
			db.LogInsert(name, synthesizeRow(cat, name, rng, &nextKey))
		}
		perm := rng.Perm(rel.Len())
		if nDel > rel.Len() {
			nDel = rel.Len()
		}
		for j := 0; j < nDel; j++ {
			db.LogDelete(name, rel.Rows()[perm[j]].Clone())
		}
	}
}

// syntheticKeyBase maps a batch seed to the start of its fresh-key range,
// far above any generated key space. Ranges of distinct seeds are disjoint
// (up to 2^20 inserted rows per batch); unlike the process-global counter it
// replaces, the range depends only on the seed, keeping update batches
// reproducible run to run.
func syntheticKeyBase(seed int64) int64 {
	return 1<<40 + seed*(1<<20)
}

// synthesizeRow builds a plausible fresh row for a table, taking its key
// from the batch's counter.
func synthesizeRow(cat *catalog.Catalog, name string, rng *rand.Rand, nextKey *int64) algebra.Tuple {
	*nextKey++
	k := *nextKey
	switch name {
	case "region":
		return algebra.Tuple{algebra.NewInt(k), algebra.NewString("region-new")}
	case "nation":
		return algebra.Tuple{algebra.NewInt(k), algebra.NewString("nation-new"), algebra.NewInt(int64(rng.Intn(5)))}
	case "supplier":
		return algebra.Tuple{algebra.NewInt(k), algebra.NewString("supp"),
			algebra.NewInt(int64(rng.Intn(25))), algebra.NewFloat(float64(rng.Intn(10999) - 999))}
	case "customer":
		return algebra.Tuple{algebra.NewInt(k), algebra.NewString("cust"),
			algebra.NewInt(int64(rng.Intn(25))), algebra.NewInt(int64(rng.Intn(5))),
			algebra.NewFloat(float64(rng.Intn(10999) - 999))}
	case "part":
		return algebra.Tuple{algebra.NewInt(k), algebra.NewString("part"),
			algebra.NewInt(int64(rng.Intn(150))), algebra.NewInt(int64(1 + rng.Intn(50))),
			algebra.NewFloat(float64(900 + rng.Intn(1200)))}
	case "partsupp":
		n := cat.MustTable("part").Stats.Rows
		return algebra.Tuple{algebra.NewInt(1 + rng.Int63n(n)), algebra.NewInt(k),
			algebra.NewFloat(float64(1 + rng.Intn(1000))), algebra.NewInt(int64(1 + rng.Intn(9999))),
			algebra.NewString("ps")}
	case "orders":
		c := cat.MustTable("customer").Stats.Rows
		return algebra.Tuple{algebra.NewInt(k), algebra.NewInt(1 + rng.Int63n(c)),
			algebra.NewInt(int64(rng.Intn(3))), algebra.NewFloat(float64(800 + rng.Intn(499200))),
			algebra.NewDate(int64(rng.Intn(Days))), algebra.NewString("clerk")}
	case "lineitem":
		o := cat.MustTable("orders").Stats.Rows
		p := cat.MustTable("part").Stats.Rows
		s := cat.MustTable("supplier").Stats.Rows
		return algebra.Tuple{algebra.NewInt(1 + rng.Int63n(o)), algebra.NewInt(1 + rng.Int63n(p)),
			algebra.NewInt(1 + rng.Int63n(s)), algebra.NewFloat(float64(1 + rng.Intn(50))),
			algebra.NewFloat(float64(900 + rng.Intn(104100))), algebra.NewFloat(float64(rng.Intn(11))),
			algebra.NewDate(int64(rng.Intn(Days))), algebra.NewString("li")}
	default:
		panic("tpcd: unknown table " + name)
	}
}
