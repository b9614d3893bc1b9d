package sqlish

import (
	"fmt"
	"testing"

	"talign/internal/plan"
	"talign/internal/relation"
)

// distCat is the two-table catalog the plan walk and cut tests plan
// against.
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

// TestPlanWalk: per operator the plan walk reads, one plan that runs
// shard by shard with r and s hashed on a — with the partition columns it
// requires — and one that must not.
func TestPlanWalk(t *testing.T) {
	parts := map[string]string{"r": "a", "s": "a"}
	for _, tc := range []struct{ op, walks, req, not string }{
		{"join", "SELECT r.a FROM r JOIN s ON r.a = s.b", "map[r:a s:b]", "SELECT r.a FROM r JOIN s ON r.a > s.a"},
		{"comma join", "SELECT r.a FROM r, s WHERE r.b = s.b", "map[r:b s:b]", "SELECT r.a FROM r, s WHERE r.a < s.a"},
		{"ALIGN", "SELECT a, Ts, Te FROM (r ALIGN s ON r.a = s.a) x", "map[r:a s:a]", "SELECT a, Ts, Te FROM (r ALIGN s ON r.a < s.a) x"},
		{"NORMALIZE", "SELECT a, Ts, Te FROM (r NORMALIZE s USING (b)) x", "map[r:b s:b]", "SELECT a, Ts, Te FROM (r NORMALIZE s USING ()) x"},
		{"temporal aggregation", "SELECT a, COUNT(*) c, Ts, Te FROM (r x NORMALIZE r y USING (a)) z GROUP BY a, Ts, Te", "map[r:a]",
			"SELECT COUNT(*) c, Ts, Te FROM (r x NORMALIZE r y USING ()) z GROUP BY Ts, Te"},
		{"aggregation", "SELECT a, COUNT(*) c FROM r GROUP BY a HAVING COUNT(*) > 1", "map[]", "SELECT b, COUNT(*) c FROM r GROUP BY b"},
		{"DISTINCT", "SELECT DISTINCT b, a FROM r", "map[]", "SELECT DISTINCT COUNT(*) c FROM r GROUP BY a"},
		{"ABSORB", "SELECT ABSORB a, Ts, Te FROM r", "map[]", "SELECT ABSORB b, Ts, Te FROM r"},
		{"outer join", "SELECT DISTINCT r.a FROM r LEFT JOIN s ON r.a = s.a", "map[r:a s:a]", "SELECT DISTINCT s.a FROM r LEFT JOIN s ON r.a = s.a"},
		{"FROM subquery", "SELECT q.a FROM (SELECT a, b FROM r WHERE b >= 1) q JOIN s ON q.a = s.a", "map[r:a s:a]",
			"SELECT q.a FROM (SELECT a, b FROM r ORDER BY a LIMIT 1) q JOIN s ON q.a = s.a"},
		{"WITH", "SELECT a FROM r WHERE a = 1", "map[]", "WITH w AS (SELECT a FROM r) SELECT a FROM w"},
		{"empty scan, UNION", "SELECT a FROM r WHERE 1 = 0", "map[]", "SELECT a FROM r UNION SELECT a FROM s"},
	} {
		for _, sql := range []string{tc.walks, tc.not} {
			prep, err := Prepare(sql, distCat(t), plan.DefaultFlags())
			if err != nil {
				t.Fatal(err)
			}
			req, ok := require(prep.root, prep.deps, parts)
			if want := sql == tc.walks; ok != want || ok && fmt.Sprint(req) != tc.req {
				t.Errorf("%s: %s walks %v requiring %v, want %v requiring %s", tc.op, sql, ok, req, want, tc.req)
			}
		}
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
