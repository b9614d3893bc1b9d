package sqlish

import (
	"testing"

	"talign/internal/plan"
	"talign/internal/relation"
)

// distCat is the two-table catalog the dist analysis tests resolve
// unqualified references against.
func distCat(t *testing.T) MapCatalog {
	t.Helper()
	cat := MapCatalog{}
	for _, name := range []string{"r", "s"} {
		b := relation.NewBuilder("a int", "b int")
		b.Row(0, 10, int64(1), int64(2))
		cat.Register(name, b.MustBuild())
	}
	return cat
}

func distInfo(t *testing.T, sql string) *DistInfo {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st.DistInfo(distCat(t))
}

func TestDistInfoClassification(t *testing.T) {
	info := distInfo(t, "SELECT a, b FROM r WHERE a = 1")
	if info.Kind != DistSelect || len(info.Tables) != 1 || info.Tables[0] != "r" {
		t.Fatalf("simple select: kind %v tables %v", info.Kind, info.Tables)
	}
	if info.Shape == nil || !info.Shape.Colocatable || len(info.Shape.Require) != 0 {
		t.Fatalf("single-table scan should be unconstrained-colocatable: %+v", info.Shape)
	}
	if info.OrderLimit {
		t.Fatal("OrderLimit set without ORDER BY/LIMIT")
	}

	info = distInfo(t, "SELECT a FROM r ORDER BY a LIMIT 1")
	if !info.OrderLimit {
		t.Fatal("OrderLimit not set for ORDER BY + LIMIT")
	}

	info = distInfo(t, "SELECT r.a FROM r JOIN s ON r.a = s.b")
	if info.Shape == nil || !info.Shape.Colocatable {
		t.Fatalf("equi-join should be colocatable: %+v", info.Shape)
	}
	if info.Shape.Require["r"] != "a" || info.Shape.Require["s"] != "b" {
		t.Fatalf("join key assignment = %v, want r:a s:b", info.Shape.Require)
	}

	info = distInfo(t, "SELECT r.a FROM r JOIN s ON r.a > s.a")
	if info.Shape != nil && info.Shape.Colocatable {
		t.Fatal("non-equi join must not be colocatable")
	}

	info = distInfo(t, "WITH w AS (SELECT a FROM r) SELECT a FROM w")
	if info.Shape != nil {
		t.Fatalf("WITH statement should have no scatter shape, got %+v", info.Shape)
	}
	if len(info.Tables) != 1 || info.Tables[0] != "r" {
		t.Fatalf("WITH base tables = %v, want [r]", info.Tables)
	}

	info = distInfo(t, "ANALYZE r")
	if info.Kind != DistAnalyze || info.Target != "r" {
		t.Fatalf("ANALYZE: kind %v target %q", info.Kind, info.Target)
	}
	info = distInfo(t, "DROP TABLE s")
	if info.Kind != DistDrop || info.Target != "s" {
		t.Fatalf("DROP: kind %v target %q", info.Kind, info.Target)
	}
}

func TestDistInfoAggShape(t *testing.T) {
	info := distInfo(t, "SELECT b, COUNT(*) c, SUM(a) sa FROM r GROUP BY b")
	sh := info.Shape
	if sh == nil || !sh.HasAgg || !sh.HasGroupBy || !sh.PlainGroup || !sh.CanAggSplit {
		t.Fatalf("grouped count/sum should admit the agg split: %+v", sh)
	}
	if len(sh.GroupRefs) != 1 || sh.GroupRefs[0] != (TableCol{Table: "r", Col: "b"}) {
		t.Fatalf("GroupRefs = %v, want [r.b]", sh.GroupRefs)
	}

	info = distInfo(t, "SELECT b, AVG(a) av FROM r GROUP BY b")
	if info.Shape != nil && info.Shape.CanAggSplit {
		t.Fatal("AVG must not admit the partial/final split")
	}
	info = distInfo(t, "SELECT COUNT(*) c FROM r")
	if info.Shape != nil && info.Shape.CanAggSplit {
		t.Fatal("a global aggregate must not admit the partial/final split")
	}
}

// TestPlanCuts: for each cut, a plan where the coordinator finds it and
// its merge form rebuilds the plan's output, and one where it must fall
// through to the next strategy.
func TestPlanCuts(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		cut  Cut
		redo bool
		ok   bool
	}{
		{"SELECT a, b FROM r WHERE a >= $1", CutWhole, false, true},
		{"SELECT a, b FROM r", CutWhole, true, false}, // nothing to redo
		{"SELECT DISTINCT b FROM r ORDER BY b LIMIT 2", CutBody, true, true},
		{"SELECT a, b FROM r ORDER BY a LIMIT 2", CutBody, true, false},
		{"SELECT b, COUNT(*) c, MIN(a) m FROM r GROUP BY b HAVING COUNT(*) >= $1 ORDER BY c", CutAggregate, false, true},
		{"SELECT b, AVG(a) av FROM r GROUP BY b", CutAggregate, false, false}, // AVG partials do not merge
		{"SELECT DISTINCT b FROM r", CutAggregate, false, false},
	} {
		prep, err := Prepare(tc.sql, distCat(t), plan.DefaultFlags())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := prep.Split(tc.cut, tc.redo); (err == nil) != tc.ok {
			t.Errorf("%s at the %s cut (redo %v): %v, want found %v", tc.sql, tc.cut, tc.redo, err, tc.ok)
		}
	}
}
