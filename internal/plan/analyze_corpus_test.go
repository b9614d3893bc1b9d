package plan_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain_analyze_corpus.golden")

// analyzeCorpus is the 25-shape differential corpus of the distributed
// and wire tests (internal/distsql), as statement text plus bindings, and
// temporal aggregation, which the optimizer runs as one endpoint sweep.
var analyzeCorpus = []struct {
	sql    string
	params []value.Value
}{
	{sql: "SELECT a, b FROM r WHERE a = 1 AND b >= 1"},
	{sql: "SELECT a, b, Ts, Te FROM r WHERE a = 1 AND 1 = 1"},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= 1 AND r.b <= 2"},
	{sql: "SELECT r.a, s.b FROM r LEFT JOIN s ON r.a = s.a WHERE r.b >= 1"},
	{sql: "SELECT r.a, s.b FROM r RIGHT JOIN s ON r.a = s.a AND r.b >= 1 WHERE s.b <= 2"},
	{sql: "SELECT r.a ra, s.a sa, u.b ub FROM r JOIN s ON r.a = s.a JOIN u ON s.b = u.b WHERE u.a >= 1"},
	{sql: "SELECT r.b, s.b, u.b FROM r, s, u WHERE r.a = s.a AND s.b = u.b AND u.a = 1"},
	{sql: "SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a >= 1"},
	{sql: "SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x WHERE b = 2"},
	{sql: "SELECT a, COUNT(*) c FROM r WHERE b >= 0 GROUP BY a HAVING a >= 1"},
	{sql: "SELECT a, b FROM r WHERE a = 1 UNION SELECT a, b FROM s WHERE b = 1"},
	{sql: "SELECT DISTINCT a FROM r WHERE b = 0"},
	{sql: "SELECT ABSORB a, b, Ts, Te FROM r WHERE a >= 1"},
	{sql: "WITH w AS (SELECT a, b FROM r WHERE a >= 1) SELECT w1.a, w2.b FROM w w1 JOIN w w2 ON w1.a = w2.a"},
	{sql: "SELECT a, b FROM r WHERE a BETWEEN 0 AND 1 ORDER BY a, b"},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.b = s.b WHERE r.a >= 0"},
	{sql: "SELECT a, b, Ts, Te FROM (r ALIGN s ON r.b = s.b) x"},
	{sql: "SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (b)) x"},
	{sql: "SELECT b, COUNT(*) c, SUM(a) sa, MIN(a) mn, MAX(a) mx FROM r GROUP BY b"},
	{sql: "SELECT COUNT(*) c FROM r WHERE b >= 1"},
	{sql: "SELECT a, COUNT(*) c FROM r GROUP BY a ORDER BY a"},
	{sql: "SELECT a, b FROM r ORDER BY a, b LIMIT 100"},
	{sql: "SELECT DISTINCT b FROM r"},
	{sql: "SELECT a, b FROM r WHERE a >= $1 AND b <= $2", params: []value.Value{value.NewInt(0), value.NewInt(2)}},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= $1", params: []value.Value{value.NewInt(1)}},
	{sql: "SELECT b, COUNT(*) c, Ts, Te FROM (r r1 NORMALIZE r r2 USING (b)) x GROUP BY b, Ts, Te"},
}

// corpusCatalog builds the three randomized relations the corpus reads.
func corpusCatalog(seed int) sqlish.MapCatalog {
	attrs := []schema.Attr{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}
	cfg := randrel.DefaultConfig(attrs...)
	cfg.MaxTuples = 12
	rng := rand.New(rand.NewSource(int64(1000 + seed)))
	cat := sqlish.MapCatalog{}
	for _, name := range []string{"r", "s", "u"} {
		cat.Register(name, randrel.Generate(rng, cfg))
	}
	return cat
}

// TestExplainAnalyzeCorpus pins EXPLAIN ANALYZE over the 25-shape corpus:
// the golden file was rendered when row operators did the counting, so
// every node's "actual rows" — the selected rows leaving the node — and
// every label and estimate must still read the same now that the guards
// of the one pipeline count. The root's count must equal the statement's
// result size.
func TestExplainAnalyzeCorpus(t *testing.T) {
	var b strings.Builder
	flags := plan.DefaultFlags()
	for seed := 0; seed < 3; seed++ {
		cat := corpusCatalog(seed)
		for _, q := range analyzeCorpus {
			p, err := sqlish.Prepare("EXPLAIN ANALYZE "+q.sql, cat, flags)
			if err != nil {
				t.Fatalf("seed %d: prepare %q: %v", seed, q.sql, err)
			}
			text, err := p.ExplainAnalyzeContext(t.Context(), q.params...)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, q.sql, err)
			}
			fmt.Fprintf(&b, "-- default seed %d: %s\n%s", seed, q.sql, text)

			run, err := sqlish.Prepare(q.sql, cat, flags)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := run.Execute(q.params...)
			if err != nil {
				t.Fatal(err)
			}
			root := text[:strings.IndexByte(text, '\n')]
			if want := fmt.Sprintf("(actual rows=%d)", rel.Len()); !strings.HasSuffix(root, want) {
				t.Errorf("seed %d: %q: root line %q, want suffix %s", seed, q.sql, root, want)
			}
		}
	}
	path := filepath.Join("testdata", "explain_analyze_corpus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<end of golden>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("EXPLAIN ANALYZE corpus diverged from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("EXPLAIN ANALYZE corpus is a prefix of the golden (%d vs %d lines)", len(gl), len(wl))
	}
}
