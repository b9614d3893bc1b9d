package talign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"talign/internal/dataset"
	"talign/internal/exec"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/value"
	"talign/internal/wire"
)

// openRemoteTest boots an httptest talignd with the demo catalog and
// connects through the public client.
func openRemoteTest(t *testing.T) *DB {
	t.Helper()
	srv := server.New(server.Config{})
	r, p := dataset.Demo()
	srv.Catalog().Register("r", r)
	srv.Catalog().Register("p", p)
	srv.AnalyzeAll()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	db, err := Open(ts.URL)
	if err != nil {
		t.Fatalf("remote Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// collect drains a cursor into plain Go rows.
func collect(t *testing.T, rows *Rows) [][]any {
	t.Helper()
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		vals := rows.Values()
		row := make([]any, len(vals))
		for i := range vals {
			row[i] = goValue(vals[i])
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return out
}

// apiQueries exercises the public contract over both backends.
var apiQueries = []struct {
	sql  string
	args []any
}{
	{"SELECT a, mn, mx FROM p ORDER BY a, mn", nil},
	{"SELECT n FROM r WHERE n = $1 ORDER BY Ts", []any{"Ann"}},
	{"SELECT n, Ts, Te FROM (r a NORMALIZE r b USING (n)) x ORDER BY n, Ts", nil},
	{"WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r) SELECT n, Us, Ue FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx AND a >= $1) x ORDER BY n, Us, Ts", []any{30}},
	{"SELECT a FROM p ORDER BY a DESC LIMIT 2 OFFSET 1", nil},
	// A parameter keeps its kind over the wire: a whole float, NaN, a period.
	{"SELECT a, a / $1 b FROM p", []any{4.0}},
	{"SELECT a, a + $1 b FROM p", []any{math.NaN()}},
	{"SELECT n FROM r WHERE PERIOD(Ts, Te) = $1", []any{value.NewInterval(interval.New(1, 5))}},
}

// typed renders rows cell by cell with each cell's Go type, so that NaN
// matches NaN and 12 does not match 12.0.
func typed(rows [][]any) string {
	var b strings.Builder
	for _, row := range rows {
		for _, c := range row {
			fmt.Fprintf(&b, "%T(%v) ", c, c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestEmbeddedRemoteEquivalent: the same statements produce identical
// rows through the embedded executor cursor and the remote wire stream —
// the "one contract, two backends" acceptance check.
func TestEmbeddedRemoteEquivalent(t *testing.T) {
	emb, err := Open("talign://demo")
	if err != nil {
		t.Fatal(err)
	}
	defer emb.Close()
	rem := openRemoteTest(t)

	for _, q := range apiQueries {
		ctx := context.Background()
		er, err := emb.Query(ctx, q.sql, q.args...)
		if err != nil {
			t.Fatalf("embedded %s: %v", q.sql, err)
		}
		rr, err := rem.Query(ctx, q.sql, q.args...)
		if err != nil {
			t.Fatalf("remote %s: %v", q.sql, err)
		}
		if !reflect.DeepEqual(er.Columns(), rr.Columns()) {
			t.Fatalf("%s: columns %v vs %v", q.sql, er.Columns(), rr.Columns())
		}
		ev, rv := collect(t, er), collect(t, rr)
		if typed(ev) != typed(rv) {
			t.Fatalf("%s: embedded\n%svs remote\n%s", q.sql, typed(ev), typed(rv))
		}
		if len(ev) == 0 {
			t.Fatalf("%s: no rows — not a meaningful differential", q.sql)
		}
	}
}

// TestPreparedStatements: prepare once, execute many with different
// bindings on both backends.
func TestPreparedStatements(t *testing.T) {
	emb, err := Open("talign://demo")
	if err != nil {
		t.Fatal(err)
	}
	defer emb.Close()
	rem := openRemoteTest(t)

	for name, db := range map[string]*DB{"embedded": emb, "remote": rem} {
		sess := db.Session("")
		stmt, err := sess.Prepare(context.Background(), "SELECT a FROM p WHERE a >= $1 ORDER BY a")
		if err != nil {
			t.Fatalf("%s Prepare: %v", name, err)
		}
		if stmt.NumParams() != 1 {
			t.Fatalf("%s NumParams = %d", name, stmt.NumParams())
		}
		if cols := stmt.Columns(); len(cols) != 3 || cols[0] != "a" || cols[2] != "te" {
			t.Fatalf("%s Columns = %v", name, cols)
		}
		for want, arg := range map[int]int64{4: 40, 5: 30} {
			rows, err := stmt.Query(context.Background(), arg)
			if err != nil {
				t.Fatalf("%s Query(%d): %v", name, arg, err)
			}
			if got := len(collect(t, rows)); got != want {
				t.Fatalf("%s Query(%d): %d rows, want %d", name, arg, got, want)
			}
		}
		if _, err := stmt.Query(context.Background()); err == nil {
			t.Fatalf("%s: missing params accepted", name)
		}
	}
}

// TestRowsScan covers the typed Scan destinations.
func TestRowsScan(t *testing.T) {
	db, err := Open("talign://demo")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Query(context.Background(), "SELECT n, Ts, Te FROM r WHERE n = 'Joe'")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var n string
	var ts, te int64
	if err := rows.Scan(&n, &ts, &te); err != nil {
		t.Fatal(err)
	}
	if n != "Joe" || ts != 1 || te != 5 {
		t.Fatalf("scanned (%q, %d, %d)", n, ts, te)
	}
}

// TestPlanResults: EXPLAIN and ANALYZE surface through Rows.Plan on both
// backends.
func TestPlanResults(t *testing.T) {
	emb, err := Open("talign://demo")
	if err != nil {
		t.Fatal(err)
	}
	defer emb.Close()
	rem := openRemoteTest(t)
	for name, db := range map[string]*DB{"embedded": emb, "remote": rem} {
		rows, err := db.Query(context.Background(), "EXPLAIN SELECT n FROM r")
		if err != nil {
			t.Fatalf("%s EXPLAIN: %v", name, err)
		}
		if !strings.Contains(rows.Plan(), "SeqScan r") {
			t.Fatalf("%s EXPLAIN plan = %q", name, rows.Plan())
		}
		rows.Close()
		rows, err = db.Query(context.Background(), "ANALYZE p")
		if err != nil {
			t.Fatalf("%s ANALYZE: %v", name, err)
		}
		if !strings.Contains(rows.Plan(), "ANALYZE p: 5 rows") {
			t.Fatalf("%s ANALYZE plan = %q", name, rows.Plan())
		}
		rows.Close()
	}
}

// TestStructuredErrorsSurface: the remote backend surfaces the wire
// error object with its code and position.
func TestStructuredErrorsSurface(t *testing.T) {
	rem := openRemoteTest(t)
	_, err := rem.Query(context.Background(), "SELECT n FROM")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if !strings.Contains(err.Error(), "parse") || !strings.Contains(err.Error(), "col 14") {
		t.Fatalf("remote parse error = %v", err)
	}

	emb, err2 := Open("talign://demo")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer emb.Close()
	_, err = emb.Query(context.Background(), "SELECT n FROM")
	var se *sqlish.Error
	if !errors.As(err, &se) || se.Code != sqlish.ErrParse {
		t.Fatalf("embedded parse error = %v", err)
	}
}

// TestNonBooleanConditionRejected: a WHERE / ON / HAVING that is no truth
// value, and a non-boolean operand of AND / OR / NOT, fail at Prepare on
// both DSN schemes with a request error that points into the statement —
// whether or not a row would ever have reached the operand — and never as a
// recovered panic. An untyped NULL and a $N pass.
func TestNonBooleanConditionRejected(t *testing.T) {
	emb, err := Open("talign://demo")
	if err != nil {
		t.Fatal(err)
	}
	defer emb.Close()
	panics := exec.PanicsRecovered()
	for name, db := range map[string]*DB{"talign://": emb, "talignd://": openRemoteTest(t)} {
		for sql, col := range map[string]int{
			"SELECT n FROM r WHERE Ts = 0 AND n":                                    30,
			"SELECT n FROM r WHERE Ts = 99 AND n":                                   31, // short-circuited on every row
			"SELECT n FROM (SELECT n FROM r WHERE Ts > 99) e WHERE Ts = 0 AND n":    62, // over no rows
			"SELECT n FROM r WHERE NOT Ts":                                          23,
			"SELECT n FROM r WHERE n OR Ts = 0":                                     25,
			"SELECT n FROM r WHERE n":                                               23,
			"SELECT r.n FROM r JOIN p ON p.a":                                       29,
			"SELECT n FROM (r ALIGN p ON a + 1) x":                                  29,
			"SELECT n, COUNT(*) c FROM r GROUP BY n HAVING COUNT(*)":                47,
			"SELECT n, COUNT(*) c FROM r GROUP BY n HAVING COUNT(*) > 1 AND MAX(n)": 60,
		} {
			_, err := db.Query(context.Background(), sql)
			var se *sqlish.Error
			var we *wire.Error
			switch {
			case errors.As(err, &se):
				we = &wire.Error{Code: se.Code, Line: se.Line, Col: se.Col}
			case !errors.As(err, &we):
				t.Fatalf("%s: %s: error %v, want a structured one", name, sql, err)
			}
			if we.Code != sqlish.ErrRequest || we.Line != 1 || we.Col != col {
				t.Errorf("%s: %s: %v; want a request error at line 1, col %d", name, sql, err, col)
			}
		}
		for sql, args := range map[string][]any{"SELECT n FROM r WHERE Ts = 0 AND NULL": nil, "SELECT n FROM r WHERE NOT $1 OR $1": {true}} {
			rows, err := db.Query(context.Background(), sql, args...)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, sql, err)
			}
			collect(t, rows)
		}
	}
	if got := exec.PanicsRecovered(); got != panics {
		t.Fatalf("%d panic(s) recovered", got-panics)
	}
}

// TestCancelPublicAPI: cancelling the Query context stops an embedded
// cursor promptly with the cancellation surfaced in Err.
func TestCancelPublicAPI(t *testing.T) {
	db, err := Open("talign://")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := relation.NewBuilder("v int")
	for i := 0; i < 3000; i++ {
		b.Row(int64(i%11), int64(i%11)+40, int64(i))
	}
	if err := db.Register("big", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.Query(ctx, "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	start := time.Now()
	for rows.Next() {
		if time.Since(start) > 10*time.Second {
			t.Fatal("cancelled cursor kept producing rows")
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

// TestDSNErrors rejects malformed DSNs loudly.
func TestDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"postgres://x",
		"talign://unknowncatalog",
		"talign://?bogus=1",
		"talign://?load=nopath",
		"talignd://",
	} {
		if _, err := Open(dsn); err == nil {
			t.Fatalf("Open(%q) succeeded", dsn)
		}
	}
}
