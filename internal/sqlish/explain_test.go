package sqlish_test

import (
	"strings"
	"testing"

	"talign/internal/dataset"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqlish"
)

// goldenQuery is the representative ALIGN + join + aggregate statement
// the EXPLAIN goldens pin: alignment against the paper's demo relations,
// an extra join with a pushable ON conjunct, and a temporal aggregation.
const goldenQuery = `SELECT n, COUNT(*) c, Ts, Te
FROM (r ALIGN p ON a >= 40) x JOIN p p2 ON p2.a >= 45
GROUP BY n, Ts, Te`

// goldenServer builds a server over the demo catalog with fresh
// statistics, exactly like talignd's auto-analyzed startup state.
func goldenServer() *server.Server {
	r, p := dataset.Demo()
	return newServer(plan.DefaultFlags(), true, map[string]*relation.Relation{"r": r, "p": p})
}

// TestExplainGolden pins the optimized plan shape for the representative
// query. A diff here means the optimizer changed its mind — review it
// deliberately, then update the golden. Note the two optimizer effects it
// locks in: the ON conjunct p2.a >= 45 pushed below the join as a filter
// on p2's scan, and the collapsed hidden-column projections.
func TestExplainGolden(t *testing.T) {
	const want = `Project g0, agg0  (rows=20)
  HashAggregate (1 group cols, byT=true, 1 aggs)  (rows=20)
    nestloop inner join ON true  (rows=40)
      Project n, TS, TE  (rows=40)
        FusedAdjust align  (rows=40)
          Project n, TS, TE  (rows=3)
            SeqScan r  (rows=3)
          Project a, mn, mx, TS, TE  (rows=5)
            SeqScan p  (rows=5)
      Project a, mn, mx, TS, TE  (rows=1)
        Filter (a >= 45)  (rows=1)
          SeqScan p  (rows=5)
`
	e := goldenServer()
	_, got, err := query(t, e, "EXPLAIN "+goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("EXPLAIN golden mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeGolden pins the estimated-vs-actual rendering: the
// demo data is fixed, so every actual count is deterministic, and the
// fresh server's first execution builds p's group index.
func TestExplainAnalyzeGolden(t *testing.T) {
	const want = `Project g0, agg0  (rows=20) (actual rows=5)
  HashAggregate (1 group cols, byT=true, 1 aggs)  (rows=20) (actual rows=5)
    nestloop inner join ON true  (rows=40) (actual rows=10)
      Project n, TS, TE  (rows=40) (actual rows=5)
        FusedAdjust align  (rows=40) (actual rows=5) (group index built)
          Project n, TS, TE  (rows=3) (actual rows=3)
            SeqScan r  (rows=3) (actual rows=3)
          Project a, mn, mx, TS, TE  (rows=5) (actual rows=5)
            SeqScan p  (rows=5) (actual rows=5)
      Project a, mn, mx, TS, TE  (rows=1) (actual rows=2)
        Filter (a >= 45)  (rows=1) (actual rows=2)
          SeqScan p  (rows=5) (actual rows=5)
`
	e := goldenServer()
	_, got, err := query(t, e, "EXPLAIN ANALYZE "+goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("EXPLAIN ANALYZE golden mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeMatchesExecution: the instrumented run must return
// the same row count the plain execution does.
func TestExplainAnalyzeMatchesExecution(t *testing.T) {
	e := goldenServer()
	rel, _, err := query(t, e, goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, text, err := query(t, e, "EXPLAIN ANALYZE "+goldenQuery)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(text, "\n", 2)[0]
	if !strings.Contains(first, "(actual rows=5)") || rel.Len() != 5 {
		t.Errorf("root actual (%s) disagrees with execution (%d rows)", first, rel.Len())
	}
}

// TestAnalyzeStatement: ANALYZE through the SQL front end updates the
// catalog's statistics and reports a summary.
func TestAnalyzeStatement(t *testing.T) {
	r, _ := dataset.Demo()
	e := newServer(plan.DefaultFlags(), false, map[string]*relation.Relation{"r": r})
	rel, msg, err := query(t, e, "ANALYZE r")
	if err != nil || rel != nil {
		t.Fatalf("ANALYZE: rel=%v err=%v", rel, err)
	}
	if !strings.Contains(msg, "ANALYZE r") || !strings.Contains(msg, "3 rows") {
		t.Errorf("ANALYZE summary = %q", msg)
	}
	if _, _, err := query(t, e, "ANALYZE nosuch"); err == nil {
		t.Error("ANALYZE of an unknown table must fail")
	}
	// ANALYZE cannot be prepared (it mutates catalog state).
	if _, err := sqlish.Prepare("ANALYZE r", sqlish.MapCatalog{"r": r}, plan.DefaultFlags()); err == nil {
		t.Error("Prepare(ANALYZE) must fail")
	}
}
