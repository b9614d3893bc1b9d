package sqlish

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

type refStmt struct {
	sql     string // "plan: <join type> [matchT] [residual]" builds r ⋈ s on r.a = s.a through the planner
	params  []value.Value
	ordered bool // ORDER BY: the row order is part of the answer
}

func refP(sql string, params ...int64) refStmt {
	st := refStmt{sql: sql, ordered: strings.Contains(sql, "ORDER BY")}
	for _, p := range params {
		st.params = append(st.params, value.NewInt(p))
	}
	return st
}

// DiffQueries is the statement mix the optimizer differential covers:
// filters over every pushdown target (projections, joins incl. outer,
// ALIGN/NORMALIZE, set operations, DISTINCT/ABSORB, GROUP BY + HAVING),
// constant folding, multi-way join chains (a comma join among them), WITH
// sharing, and ORDER BY. It is exported for the package's external
// tests.
var DiffQueries = []string{
	"SELECT a, b FROM r WHERE a = 1 AND b >= 1",
	"SELECT a, b, Ts, Te FROM r WHERE a = 1 AND 1 = 1",
	"SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= 1 AND r.b <= 2",
	"SELECT r.a, s.b FROM r LEFT JOIN s ON r.a = s.a WHERE r.b >= 1",
	"SELECT r.a, s.b FROM r RIGHT JOIN s ON r.a = s.a AND r.b >= 1 WHERE s.b <= 2",
	"SELECT r.a ra, s.a sa, u.b ub FROM r JOIN s ON r.a = s.a JOIN u ON s.b = u.b WHERE u.a >= 1",
	"SELECT r.b, s.b, u.b FROM r, s, u WHERE r.a = s.a AND s.b = u.b AND u.a = 1",
	"SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a >= 1",
	"SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x WHERE b = 2",
	"SELECT a, COUNT(*) c FROM r WHERE b >= 0 GROUP BY a HAVING a >= 1",
	"SELECT a, b FROM r WHERE a = 1 UNION SELECT a, b FROM s WHERE b = 1",
	"SELECT DISTINCT a FROM r WHERE b = 0",
	"SELECT ABSORB a, b, Ts, Te FROM r WHERE a >= 1",
	"WITH w AS (SELECT a, b FROM r WHERE a >= 1) SELECT w1.a, w2.b FROM w w1 JOIN w w2 ON w1.a = w2.a",
	"SELECT a, b FROM r WHERE a BETWEEN 0 AND 1 ORDER BY a, b",
}

// refCorpus is what the row executor answered before it was deleted:
// DiffQueries, the rest of the 25-shape analyze corpus, and one statement
// per operator that moved onto the columnar kit.
func refCorpus() []refStmt {
	var c []refStmt
	for _, q := range DiffQueries {
		c = append(c, refP(q))
	}
	c = append(c,
		refP("SELECT r.a, s.b FROM r JOIN s ON r.b = s.b WHERE r.a >= 0"),
		refP("SELECT a, b, Ts, Te FROM (r ALIGN s ON r.b = s.b) x"),
		refP("SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (b)) x"),
		refP("SELECT b, COUNT(*) c, SUM(a) sa, MIN(a) mn, MAX(a) mx FROM r GROUP BY b"),
		refP("SELECT COUNT(*) c FROM r WHERE b >= 1"),
		refP("SELECT a, COUNT(*) c FROM r GROUP BY a ORDER BY a"),
		refP("SELECT a, b FROM r ORDER BY a, b LIMIT 100"),
		refP("SELECT DISTINCT b FROM r"),
		refP("SELECT a, b FROM r WHERE a >= $1 AND b <= $2", 0, 2),
		refP("SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= $1", 1),
		refP("SELECT a, b, Ts, Te FROM r ORDER BY b DESC, a"),
		refP("SELECT a, b, Ts, Te FROM r ORDER BY Ts, Te DESC, a, b"),
		refP("SELECT a + b c, Ts, Te FROM r ORDER BY 1 DESC"),
		refP("SELECT DISTINCT a + b c FROM r"),
		refP("SELECT a, b FROM r INTERSECT SELECT a, b FROM s"),
		refP("SELECT a, b, Ts, Te FROM r INTERSECT SELECT a, b, Ts, Te FROM s"),
		refP("SELECT a, b FROM r EXCEPT SELECT a, b FROM s"),
		refP("SELECT a FROM r EXCEPT SELECT a FROM s WHERE b >= $1", 1),
		refP("SELECT a, b FROM r ORDER BY a, b LIMIT 3 OFFSET 2"),
		refP("SELECT a, b, Ts, Te FROM r ORDER BY b DESC, a LIMIT 2 OFFSET 1"),
		refP("SELECT a, b FROM r WHERE DUR(Ts, Te) >= 5"),
		refP("SELECT a + b c, a * 2 d FROM r WHERE a + b >= $1", 2),
		refP("SELECT 6 / a q, b FROM r"),
		refP("SELECT a, Ts + 1 s1, Te - Ts d FROM r WHERE b - a <= 1"),
	)
	for _, jt := range []string{"inner", "left outer", "right outer", "full outer", "semi", "anti"} {
		for _, mod := range []string{"", " residual", " matchT", " matchT residual"} {
			c = append(c, refStmt{sql: "plan: " + jt + mod})
		}
	}
	for _, jt := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
		c = append(c,
			refP("SELECT r.a, r.b, s.a sa, s.b sb FROM r "+jt+" s ON r.a = s.a"),
			refP("SELECT r.a, r.b, s.a sa, s.b sb FROM r "+jt+" s ON r.a = s.a AND r.b <= s.b AND r.Ts < s.Te"))
	}
	return c
}

// refFixture holds what randrel never generates: ω, NaN, ±0, ±Inf, int and
// float keys that must compare equal, strings that differ only after a NUL.
func refFixture() (fx, fy *relation.Relation) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	fx = relation.NewBuilder("i int", "f float", "s string").
		Row(0, 4, 0, nan, "a").Row(1, 5, 1, 0.0, "a\x00").Row(2, 9, 2, negZero, "a\x00b").
		Row(0, 3, nil, inf, "").Row(3, 8, 1, -inf, nil).Row(4, 6, 2, nil, "b").
		Row(5, 9, 0, 1.0, "a").Row(0, 9, 3, 2.5, "a\x00").Row(6, 7, nil, nan, nil).
		Row(2, 4, 1, 2.0, "b").Row(1, 5, 7, negZero, "a\x00").Row(0, 4, 8, nan, "a").MustBuild()
	fy = relation.NewBuilder("i int", "f float", "s string").
		Row(0, 4, 1, nan, "a").Row(1, 5, 0, negZero, "a\x00").Row(1, 5, 2, 1.0, "a").
		Row(0, 3, nil, -inf, "").Row(2, 6, 3, inf, "a\x00b").Row(4, 6, 2, nil, "b").
		Row(5, 9, 0, 2.0, nil).Row(0, 9, 3, 3.0, "c").MustBuild()
	return fx, fy
}

var refFixtureCorpus = []refStmt{
	refP("SELECT i, f, s, Ts, Te FROM fx ORDER BY f DESC, s, i"),
	refP("SELECT i, f, s FROM fx ORDER BY s DESC, f"),
	refP("SELECT DISTINCT f FROM fx"),
	refP("SELECT DISTINCT s FROM fx"),
	refP("SELECT f, s FROM fx INTERSECT SELECT f, s FROM fy"),
	refP("SELECT f FROM fx INTERSECT SELECT f FROM fy"),
	refP("SELECT f, s FROM fx EXCEPT SELECT f, s FROM fy"),
	refP("SELECT s FROM fx EXCEPT SELECT s FROM fy"),
	refP("SELECT i, s FROM fx UNION SELECT i, s FROM fy"),
	refP("SELECT x.i, y.f FROM fx x JOIN fy y ON x.i = y.f"),
	refP("SELECT x.i, x.s, y.i yi, y.s ys FROM fx x FULL JOIN fy y ON x.s = y.s"),
	refP("SELECT x.f, y.f yf FROM fx x LEFT JOIN fy y ON x.f = y.f AND x.i <= y.i"),
	refP("SELECT x.f, y.f yf FROM fx x RIGHT JOIN fy y ON x.f = y.f"),
	refP("SELECT 6 / i q, i FROM fx"),
	refP("SELECT i + f z FROM fx WHERE f >= 0"),
	refP("SELECT s FROM fx WHERE DUR(Ts, Te) >= 3 AND s >= 'a'"),
	refP("SELECT i, COUNT(*) c, MAX(f) m FROM fx GROUP BY i"),
	refP("SELECT i, f, s, Ts, Te FROM (fx ALIGN fy ON fx.f = fy.f) x"),
}

// refRun answers one statement under flags.
func refRun(st refStmt, cat MapCatalog, flags plan.Flags) (*relation.Relation, error) {
	if spec, ok := strings.CutPrefix(st.sql, "plan: "); ok {
		p := plan.NewPlanner(flags)
		cond := expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt))
		if strings.Contains(spec, "residual") {
			cond = expr.And(cond, expr.Le(expr.CI(1, value.KindInt), expr.CI(3, value.KindInt)))
		}
		jt := exec.InnerJoin
		for ; !strings.HasPrefix(spec, jt.String()); jt++ {
		}
		return plan.Run(p.Join(p.Scan(cat["r"], "r"), p.Scan(cat["s"], "s"), cond, jt, strings.Contains(spec, "matchT")))
	}
	prep, err := Prepare(st.sql, cat, flags)
	if err != nil {
		return nil, err
	}
	return prep.Execute(st.params...)
}

// refLine renders one golden line: seed, statement, row count, the hash of
// the sorted canonical row keys and, for ORDER BY, of the keys in row order.
func refLine(seed string, st refStmt, rel *relation.Relation) string {
	keys := make([]string, 0, rel.Len())
	for _, t := range rel.Rows() {
		keys = append(keys, string(t.AppendKey(nil)))
	}
	sum := func(keys []string) string {
		h := sha256.New()
		for _, k := range keys {
			h.Write(binary.AppendUvarint(nil, uint64(len(k))))
			h.Write([]byte(k))
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	line := fmt.Sprintf("%s\t%s", seed, st.sql)
	if len(st.params) > 0 {
		line += fmt.Sprintf(" /* %v */", st.params)
	}
	ordered := ""
	if st.ordered {
		ordered = "\t" + sum(keys)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%s\t%d\t%s%s\n", line, rel.Len(), sum(keys), ordered)
}

// refRender answers the whole corpus under flags: ten randrel seeds, then
// the fixture.
func refRender(t *testing.T, tag string, flags plan.Flags) string {
	t.Helper()
	var b strings.Builder
	run := func(seed string, cat MapCatalog, corpus []refStmt) {
		for _, st := range corpus {
			rel, err := refRun(st, cat, flags)
			if err != nil {
				t.Fatalf("%s: seed %s: %s: %v", tag, seed, st.sql, err)
			}
			b.WriteString(refLine(seed, st, rel))
		}
	}
	attrs := []schema.Attr{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		cfg := randrel.DefaultConfig(attrs...)
		cfg.MaxTuples = 14
		cat := MapCatalog{}
		for _, name := range []string{"r", "s", "u"} {
			cat.Register(name, randrel.Generate(rng, cfg))
		}
		run(fmt.Sprint(seed), cat, refCorpus())
	}
	fx, fy := refFixture()
	run("fixture", MapCatalog{"fx": fx, "fy": fy}, refFixtureCorpus)
	return b.String()
}

// TestRowReference holds every execution configuration to the answers the
// row executor (the []tuple.Tuple operator family, serial, under default and
// merge-only flags alike) gave at the last commit that had one:
// testdata/row_reference.golden was rendered there, by this file, and is
// never regenerated.
func TestRowReference(t *testing.T) {
	golden, err := os.ReadFile("testdata/row_reference.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(golden), "\n")
	for _, c := range []struct {
		tag string
		mut func(*plan.Flags)
	}{
		{"default", func(*plan.Flags) {}},
		{"batch=2", func(f *plan.Flags) { f.BatchSize = 2 }},
		{"no optimizer", func(f *plan.Flags) { f.DisableOptimizer = true }},
	} {
		t.Run(c.tag, func(t *testing.T) {
			flags := plan.DefaultFlags()
			c.mut(&flags)
			for i, got := range strings.Split(refRender(t, c.tag, flags), "\n") {
				if i >= len(want) || got != want[i] {
					t.Fatalf("line %d:\n got %q\nwant %q", i+1, got, append(want, "<end of golden>")[min(i, len(want))])
				}
			}
		})
	}
}
