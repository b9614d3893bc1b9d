package talign

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"talign/internal/dataset"
	"talign/internal/relation"
	"talign/internal/schema"
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
