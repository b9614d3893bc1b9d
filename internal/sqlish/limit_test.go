package sqlish_test

import (
	"errors"
	"strings"
	"testing"

	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqlish"
)

func limitServer() *server.Server {
	b := relation.NewBuilder("v int")
	for i := 0; i < 100; i++ {
		b.Row(int64(i), int64(i)+1, int64(i))
	}
	return newServer(plan.DefaultFlags(), false, map[string]*relation.Relation{"nums": b.MustBuild()})
}

// TestLimitOffsetSQL checks the grammar end to end: LIMIT/OFFSET apply
// after ORDER BY, compose, and accept OFFSET alone, in a FROM subquery
// too, where a filter above them stays above them.
func TestLimitOffsetSQL(t *testing.T) {
	e := limitServer()
	for _, tc := range []struct {
		sql   string
		rows  int
		first int64
	}{
		{"SELECT v FROM nums ORDER BY v LIMIT 5", 5, 0},
		{"SELECT v FROM nums ORDER BY v LIMIT 5 OFFSET 10", 5, 10},
		{"SELECT v FROM nums ORDER BY v DESC LIMIT 1", 1, 99},
		{"SELECT v FROM nums ORDER BY v OFFSET 95", 5, 95},
		{"SELECT v FROM nums ORDER BY v LIMIT 0", 0, 0},
		{"SELECT v FROM nums ORDER BY v LIMIT 1000", 100, 0},
		{"SELECT v FROM (SELECT v FROM nums ORDER BY v DESC LIMIT 3 OFFSET 1) q ORDER BY v", 3, 96},
		{"SELECT v FROM (SELECT v FROM nums ORDER BY v LIMIT 10) q WHERE v >= 5 ORDER BY v", 5, 5},
	} {
		rel, _, err := query(t, e, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if rel.Len() != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.sql, rel.Len(), tc.rows)
		}
		if tc.rows > 0 && rel.Tuples[0].Vals[0].Int() != tc.first {
			t.Fatalf("%s: first row %v, want %d", tc.sql, rel.Tuples[0].Vals[0], tc.first)
		}
	}
}

// TestLimitExplain: the plan renders the Limit node above the sort.
func TestLimitExplain(t *testing.T) {
	e := limitServer()
	_, text, err := query(t, e, "EXPLAIN SELECT v FROM nums ORDER BY v LIMIT 7 OFFSET 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "Limit 7 offset 3") {
		t.Fatalf("EXPLAIN does not lead with the Limit node:\n%s", text)
	}
}

// TestLimitErrors: LIMIT/OFFSET take non-negative integer literals.
func TestLimitErrors(t *testing.T) {
	e := limitServer()
	for _, sql := range []string{
		"SELECT v FROM nums LIMIT x",
		"SELECT v FROM nums LIMIT 1.5",
		"SELECT v FROM nums OFFSET v",
		"SELECT v FROM nums LIMIT", // dangling
	} {
		if _, _, err := query(t, e, sql); err == nil {
			t.Fatalf("%s: expected an error", sql)
		}
	}
}

// TestStructuredParseErrors: parse errors carry the stage code and the
// 1-based line/col of the offending token, also across lines.
func TestStructuredParseErrors(t *testing.T) {
	for _, tc := range []struct {
		sql       string
		line, col int
	}{
		{"SELECT v FROM", 1, 14},
		{"SELECT v\nFROM nums WHERE\n  v >", 3, 6},
		{"SELECT 'oops", 1, 8},
	} {
		_, err := sqlish.Parse(tc.sql)
		if err == nil {
			t.Fatalf("%q: expected a parse error", tc.sql)
		}
		var se *sqlish.Error
		if !errors.As(err, &se) {
			t.Fatalf("%q: error %v is not a structured *Error", tc.sql, err)
		}
		if se.Code != sqlish.ErrParse {
			t.Fatalf("%q: code %q, want parse", tc.sql, se.Code)
		}
		if se.Line != tc.line || se.Col != tc.col {
			t.Fatalf("%q: position %d:%d, want %d:%d (%v)", tc.sql, se.Line, se.Col, tc.line, tc.col, se)
		}
	}
}
