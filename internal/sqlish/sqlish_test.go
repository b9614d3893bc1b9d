package sqlish_test

import (
	"strings"
	"testing"

	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/tuple"
	"talign/internal/value"
)

// newServer returns a server planning under flags over rels, each
// analyzed when analyze is set.
func newServer(flags plan.Flags, analyze bool, rels map[string]*relation.Relation) *server.Server {
	s := server.New(server.Config{Flags: flags})
	for name, rel := range rels {
		s.Catalog().Register(name, rel)
	}
	if analyze {
		s.AnalyzeAll()
	}
	return s
}

// query runs one statement on s: its rows, or its plan text.
func query(t *testing.T, s *server.Server, sql string) (*relation.Relation, string, error) {
	res, err := sqltest.Run(t.Context(), s, "", "", sql, nil, 0)
	return res.Rel, res.Plan, err
}

// literal prepares sql's own text, constant literals and all (the server
// plans its literal-lifted shape), against s's catalog under flags and
// executes it.
func literal(s *server.Server, flags plan.Flags, sql string) (*relation.Relation, error) {
	prep, err := sqlish.Prepare(sql, s.Catalog().Snapshot(), flags)
	if err != nil {
		return nil, err
	}
	return prep.Execute()
}

// newHotelServer loads the paper's running example (Fig. 1): R with
// reservations and P with price categories, months since 2012/1.
func newHotelServer() *server.Server {
	return newServer(plan.DefaultFlags(), false, map[string]*relation.Relation{
		"r": relation.NewBuilder("n string").
			Row(0, 7, "Ann").
			Row(1, 5, "Joe").
			Row(7, 11, "Ann").
			MustBuild(),
		"p": relation.NewBuilder("a int", "mn int", "mx int").
			Row(0, 5, 50, 1, 2).
			Row(0, 5, 40, 3, 7).
			Row(0, 12, 30, 8, 12).
			Row(9, 12, 50, 1, 2).
			Row(9, 12, 40, 3, 7).
			MustBuild(),
	})
}

func mustEqual(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if !relation.SetEqual(got, want) {
		onlyGot, onlyWant := relation.Diff(got, want)
		t.Fatalf("relations differ\nonly got:  %v\nonly want: %v\ngot:\n%s", onlyGot, onlyWant, got)
	}
}

// TestPaperQ1SQL runs the paper's Sec. 6.2 formulation of query Q1: the
// temporal left outer join via two ALIGN from-items, timestamp equality in
// the join condition, and ABSORB.
func TestPaperQ1SQL(t *testing.T) {
	e := newHotelServer()
	got, _, err := query(t, e, `
		WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r)
		SELECT ABSORB n, a, mn, mx, x.Ts, x.Te
		FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx) x
		LEFT OUTER JOIN (p ALIGN r2 ON DUR(Us, Ue) BETWEEN mn AND mx) y
		ON DUR(Us, Ue) BETWEEN y.mn AND y.mx AND x.Ts = y.Ts AND x.Te = y.Te`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want := relation.NewBuilder("n string", "a int", "mn int", "mx int").
		Row(0, 5, "Ann", 40, 3, 7).
		Row(1, 5, "Joe", 40, 3, 7).
		Row(5, 7, "Ann", nil, nil, nil).
		Row(7, 9, "Ann", nil, nil, nil).
		Row(9, 11, "Ann", 40, 3, 7).
		MustBuild()
	mustEqual(t, got, want)
}

// TestPaperQ2SQL runs the paper's Sec. 6.3 formulation of query Q2:
// temporal aggregation via NORMALIZE with an empty USING list.
func TestPaperQ2SQL(t *testing.T) {
	e := newHotelServer()
	got, _, err := query(t, e, `
		WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r)
		SELECT AVG(DUR(Us, Ue)) avg_dur, Ts, Te
		FROM (r2 r1 NORMALIZE r2 r3 USING ()) x
		GROUP BY Ts, Te`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want := relation.NewBuilder("avg_dur float").
		Row(0, 1, 7.0).
		Row(1, 5, 5.5).
		Row(5, 7, 7.0).
		Row(7, 11, 4.0).
		MustBuild()
	mustEqual(t, got, want)
}

func TestSelectStarKeepsValidTime(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `SELECT * FROM r WHERE n = 'Ann'`).Rel
	want := relation.NewBuilder("n string").
		Row(0, 7, "Ann").
		Row(7, 11, "Ann").
		MustBuild()
	mustEqual(t, got, want)
}

func TestTimestampPropagation(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `SELECT Ts Us, Te Ue, * FROM r WHERE n = 'Joe'`).Rel
	want := relation.NewBuilder("us int", "ue int", "n string").
		Row(1, 5, 1, 5, "Joe").
		MustBuild()
	mustEqual(t, got, want)
}

func TestNormalizeWithGrouping(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `SELECT * FROM (r a NORMALIZE r b USING (n)) x`).Rel
	// Ann's reservations meet at 7 but do not overlap; Joe splits nothing
	// within Ann's group.
	want := relation.NewBuilder("n string").
		Row(0, 7, "Ann").
		Row(7, 11, "Ann").
		Row(1, 5, "Joe").
		MustBuild()
	mustEqual(t, got, want)
}

func TestCountGroupByName(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `
		SELECT n, COUNT(*) c, Ts, Te
		FROM (r a NORMALIZE r b USING ()) x
		GROUP BY n, Ts, Te`).Rel
	want := relation.NewBuilder("n string", "c int").
		Row(0, 1, "Ann", 1).
		Row(1, 5, "Ann", 1).
		Row(5, 7, "Ann", 1).
		Row(1, 5, "Joe", 1).
		Row(7, 11, "Ann", 1).
		MustBuild()
	mustEqual(t, got, want)
}

func TestSetOperations(t *testing.T) {
	e := newServer(plan.DefaultFlags(), false, map[string]*relation.Relation{
		"a": relation.NewBuilder("x string").Row(0, 4, "k").MustBuild(),
		"b": relation.NewBuilder("x string").Row(2, 6, "k").MustBuild(),
	})
	// Nontemporal union over normalized inputs (the Table 2 reduction
	// expressed in SQL).
	got := sqltest.MustRun(t, e, `
		SELECT * FROM (a a1 NORMALIZE b b1 USING (x)) x
		UNION
		SELECT * FROM (b b2 NORMALIZE a a2 USING (x)) y`).Rel
	want := relation.NewBuilder("x string").
		Row(0, 2, "k").
		Row(2, 4, "k").
		Row(4, 6, "k").
		MustBuild()
	mustEqual(t, got, want)
}

func TestExplain(t *testing.T) {
	e := newHotelServer()
	_, text, err := query(t, e, `EXPLAIN SELECT * FROM (r a ALIGN p b ON true) x`)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, wantPart := range []string{"FusedAdjust align", "SeqScan"} {
		if !strings.Contains(text, wantPart) {
			t.Fatalf("explain output missing %q:\n%s", wantPart, text)
		}
	}
}

func TestOrderBy(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `SELECT n FROM r ORDER BY n DESC, Ts`).Rel
	if got.Len() != 3 {
		t.Fatalf("want 3 rows, got %d", got.Len())
	}
	if got.Tuples[0].Vals[0].Str() != "Joe" {
		t.Fatalf("DESC order broken: first row %v", got.Tuples[0])
	}
}

func TestHaving(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `
		SELECT n, COUNT(*) c FROM r GROUP BY n HAVING COUNT(*) > 1`).Rel
	// Without GROUP BY Ts, Te the result is nontemporal (zero interval).
	want := relation.NewBuilder("n string", "c int").MustBuild()
	want.MustAppend(tuple.Tuple{Vals: []value.Value{value.NewString("Ann"), value.NewInt(2)}})
	mustEqual(t, got, want)
}

func TestErrors(t *testing.T) {
	e := newHotelServer()
	cases := []struct {
		name, sql string
	}{
		{"unknown table", `SELECT * FROM nope`},
		{"unknown column", `SELECT zz FROM r`},
		{"align without alias", `SELECT * FROM (r ALIGN p ON true)`},
		{"aggregate in where", `SELECT n FROM r WHERE COUNT(*) > 1`},
		{"ts without te", `SELECT n, Ts FROM r`},
		{"group ts without te", `SELECT n, COUNT(*) FROM r GROUP BY n, Ts`},
		{"bad set op arity", `SELECT n FROM r UNION SELECT a, mn FROM p`},
		{"unterminated string", `SELECT 'x FROM r`},
		{"trailing garbage", `SELECT n FROM r )`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := query(t, e, tc.sql); err == nil {
				t.Fatalf("expected error for %s", tc.sql)
			}
		})
	}
}

func TestWithShadowsCatalog(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `WITH r AS (SELECT * FROM r WHERE n = 'Joe') SELECT * FROM r`).Rel
	want := relation.NewBuilder("n string").Row(1, 5, "Joe").MustBuild()
	mustEqual(t, got, want)
}

func TestArithmeticAndComparisons(t *testing.T) {
	e := newHotelServer()
	got := sqltest.MustRun(t, e, `SELECT a, a * 2 + 1 d FROM p WHERE a >= 40 AND NOT (a = 50) OR a < 0`).Rel
	want := relation.NewBuilder("a int", "d int").
		Row(0, 5, 40, 81).
		Row(9, 12, 40, 81).
		MustBuild()
	mustEqual(t, got, want)
}
