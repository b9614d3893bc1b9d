package talign

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"talign/internal/dataset"
	"talign/internal/distsql"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/value"
)

// allocPinDB opens talign://mem over the relations of the benchmark's
// embedded workload at its size: two Incumben relations of n rows and the
// D_rand pair of n/4 (its price-band columns renamed, min and max being
// reserved words).
func allocPinDB(t *testing.T, n int) (*DB, *relation.Relation) {
	t.Helper()
	a := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
	dr, ds0 := dataset.Drand(n/4, 1)
	rels := map[string]*relation.Relation{
		"a":  a,
		"b":  dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 2}),
		"dr": dr,
		"ds": {
			Schema: schema.MustNew(
				schema.Attr{Name: "a", Type: value.KindInt},
				schema.Attr{Name: "lo", Type: value.KindInt},
				schema.Attr{Name: "hi", Type: value.KindInt}),
			Tuples: ds0.Tuples,
		},
	}
	db, err := Open("talign://mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for name, rel := range rels {
		if err := db.Register(name, rel); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	return db, a
}

// TestEmbeddedAllocsPerRow pins what the columnar join, aggregate and
// absorb and the batch-drained embedded Rows bought: draining a statement
// through the public client costs well under one malloc per result row.
// The texts are the benchmark's (its embedded workload's three operator
// shapes, plus the plain scan); what remains per execution is operator
// state, per-batch buffers and one value arena per batch. Before, each
// row cost one malloc at the client alone and another two to four in the
// row join, aggregate and absorb.
func TestEmbeddedAllocsPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 8 000-row relations")
	}
	db, a := allocPinDB(t, 8000)
	var maxSSN int64
	for _, tup := range a.Tuples {
		maxSSN = max(maxSSN, tup.Vals[0].Int())
	}
	stmts := []struct{ name, sql string }{
		{"scan_a", "SELECT ssn, pcn, Ts, Te FROM a"},
		{"outer_join", "SELECT ABSORB rid, rgrp, a, lo, x.Ts, x.Te " +
			"FROM (dr ALIGN ds ON dr.rgrp = ds.lo) x " +
			"LEFT OUTER JOIN (ds ALIGN dr ON dr.rgrp = ds.lo) y " +
			"ON x.rgrp = y.lo AND x.Ts = y.Ts AND x.Te = y.Te"},
		{"temporal_agg", "SELECT pcn, COUNT(*) c, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te"},
		{"filtered_join", fmt.Sprintf("SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= %d AND a.pcn >= 0", maxSSN/10)},
	}
	ctx := context.Background()
	for _, st := range stmts {
		rows := 0
		drain := func() {
			rs, err := db.Query(ctx, st.sql)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			rows = 0
			for rs.Next() {
				rows++
			}
			if err := rs.Err(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			rs.Close()
		}
		drain() // plan cache, columnar images
		runtime.GC()
		allocs := testing.AllocsPerRun(3, drain)
		t.Logf("%-14s %6d rows  %7.0f mallocs  %.3f allocs/row", st.name, rows, allocs, allocs/float64(rows))
		if rows < 1000 {
			t.Errorf("%s: %d rows is not a meaningful result", st.name, rows)
		}
		if allocs > 0.5*float64(rows) {
			t.Errorf("%s: %.0f mallocs for %d rows, want at most 0.5 per row", st.name, allocs, rows)
		}
	}
}

// pointShapes are the benchmark's point_prepared statement shapes, $1
// where the employee id goes.
var pointShapes = []struct{ name, sql string }{
	{"align_eq", "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p ALIGN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn) x"},
	{"normalize_eq", "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM b WHERE ssn = $1) q USING (ssn)) x"},
	{"join_eq", "SELECT p.ssn s1, q.pcn p2 FROM (SELECT ssn, pcn FROM a WHERE ssn = $1) p JOIN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn"},
	{"scan_eq", "SELECT ssn, pcn, Ts, Te FROM a WHERE ssn = $1"},
	{"agg_eq", "SELECT pcn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM a WHERE ssn = $1) q USING (pcn)) x GROUP BY pcn, Ts, Te"},
}

// TestAdhocPointAllocs pins what planning per statement shape bought a
// point query: ad-hoc text with a literal never seen before, on a shape
// seen before, is not planned (PlanCache Plans does not move) and not
// parsed, and so costs nearly what its prepared twin costs — the lex, the
// shape key, the lifted values and their binding: at most 10 % more
// mallocs for the operator shapes, a handful for the bare scan, where
// that handful is a larger share. Before, it paid a parse, an analysis
// and an optimization: 230 mallocs more than the twin.
func TestAdhocPointAllocs(t *testing.T) {
	db, _ := allocPinDB(t, 1000)
	ctx := context.Background()
	sess := db.Session("")
	const runs = 40
	for _, sh := range pointShapes {
		st, err := sess.Prepare(ctx, sh.sql)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		// Texts are built outside the measured calls; every one carries a
		// literal no statement before it had.
		texts := make([]string, 0, runs+2)
		for k := 0; k < cap(texts); k++ {
			texts = append(texts, strings.ReplaceAll(sh.sql, "$1", fmt.Sprint(k)))
		}
		drain := func(rs *Rows, err error) {
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			for rs.Next() {
			}
			if err := rs.Err(); err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			rs.Close()
		}
		k := 0
		prepared := func() { drain(st.Query(ctx, int64(k))); k++ }
		adhoc := func() { drain(db.Query(ctx, texts[k])); k++ }
		adhoc() // the shape's plan, from texts[0]
		twin := testing.AllocsPerRun(runs, prepared)
		plans := db.Server().CacheStats().Plans
		k = 1
		text := testing.AllocsPerRun(runs, adhoc)
		if got := db.Server().CacheStats().Plans; got != plans {
			t.Errorf("%s: %d plans built for %d never-seen literals on a seen shape", sh.name, got-plans, runs+1)
		}
		t.Logf("%-13s prepared %4.0f mallocs  ad-hoc %4.0f (+%.1f%%)", sh.name, twin, text, 100*(text-twin)/twin)
		limit := 1.10 * twin
		if sh.name == "scan_eq" {
			limit = twin + 6
		}
		if text > limit {
			t.Errorf("%s: ad-hoc text costs %.0f mallocs, its prepared twin %.0f; want at most %.0f", sh.name, text, twin, limit)
		}
	}
}

// TestPlanValidityAllocs pins what table-scoped plan validity costs a
// cache hit. On a server, checking every table a plan reads against the
// current catalog snapshot is pointer compares: 0 mallocs. On a
// coordinator, a warm DistStream open keys on the statement's shape and
// flags and validates stubs and partition columns the same way: it no
// longer formats a key string out of five versions, which was 4 of the 60
// mallocs this open cost before (what remains is the statement's
// classification).
func TestPlanValidityAllocs(t *testing.T) {
	db, _ := allocPinDB(t, 200)
	const join = "SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= 3"
	srv := db.Server()
	prep, err := srv.Prepare("", "pin", join)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prep.Deps()); n != 2 {
		t.Fatalf("the join records %d tables, want 2", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !srv.Catalog().Snapshot().Current(prep) {
			t.Fatal("a plan over unchanged tables is not current")
		}
	}); allocs != 0 {
		t.Errorf("validating a 2-table plan costs %.0f mallocs, want 0", allocs)
	}

	flags := plan.DefaultFlags()
	var topo distsql.Topology
	for i := 0; i < 2; i++ {
		hs := httptest.NewServer(distsql.Handler(server.New(server.Config{Flags: flags})))
		t.Cleanup(hs.Close)
		topo.Workers = append(topo.Workers, distsql.Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	coord := distsql.New(server.New(server.Config{Flags: flags}), topo, flags, nil)
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		rel, _ := srv.Catalog().Snapshot().Lookup(name)
		if err := coord.DistributeTable(ctx, name, rel); err != nil {
			t.Fatal(err)
		}
	}
	// EXPLAIN: the whole open — classify, plan lookup, render — with no
	// fragment dispatched, so the count repeats.
	st, err := sqlish.ParseLifted("EXPLAIN " + join)
	if err != nil {
		t.Fatal(err)
	}
	open := func() {
		res, handled, err := coord.DistStream(ctx, st, nil, 0)
		if err != nil || !handled || !strings.HasPrefix(res.Plan, "Distributed: scatter") {
			t.Fatalf("DistStream: handled=%v err=%v result %+v", handled, err, res)
		}
	}
	open()
	allocs := testing.AllocsPerRun(100, open)
	t.Logf("warm coordinator open: %.0f mallocs", allocs)
	if allocs > 57 && !raceEnabled {
		t.Errorf("a warm coordinator open costs %.0f mallocs, want at most 57 (60 with the formatted key, less 3)", allocs)
	}
}
