// The tests in this file deliberately use ONLY database/sql and the
// blank-imported driver — the stock-consumer acceptance check: a Go
// application with no talign imports beyond the registration runs
// prepared placeholder ALIGN queries against both the embedded and the
// remote DSN and iterates rows incrementally.
package sqldriver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"talign/sqldriver"

	// Test scaffolding only (boots the in-process talignd the remote DSN
	// connects to, seeds big relations); the consumer paths below never
	// touch these.
	"talign/internal/dataset"
	"talign/internal/relation"
	"talign/internal/server"
)

// remoteDSN boots a demo talignd and returns its URL as a DSN.
func remoteDSN(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{})
	r, p := dataset.Demo()
	srv.Catalog().Register("r", r)
	srv.Catalog().Register("p", p)
	srv.AnalyzeAll()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// alignSQL is the prepared placeholder ALIGN query of the acceptance
// criterion.
const alignSQL = `WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r)
SELECT n, Us, Ue FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx AND a >= $1) x
ORDER BY n, Us, Ts`

// runConsumer is the stock database/sql consumer: prepare, execute with
// two different bindings, iterate incrementally, scan into Go types.
func runConsumer(t *testing.T, dsn string) [][]any {
	t.Helper()
	db, err := sql.Open("talign", dsn)
	if err != nil {
		t.Fatalf("sql.Open(%q): %v", dsn, err)
	}
	defer db.Close()
	if err := db.PingContext(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	stmt, err := db.PrepareContext(context.Background(), alignSQL)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer stmt.Close()

	var out [][]any
	for _, minAge := range []int64{0, 30} {
		rows, err := stmt.QueryContext(context.Background(), minAge)
		if err != nil {
			t.Fatalf("Query(%d): %v", minAge, err)
		}
		cols, err := rows.Columns()
		if err != nil || !reflect.DeepEqual(cols, []string{"n", "us", "ue", "ts", "te"}) {
			t.Fatalf("Columns = %v (%v)", cols, err)
		}
		n := 0
		for rows.Next() {
			var name string
			var us, ue, ts, te int64
			if err := rows.Scan(&name, &us, &ue, &ts, &te); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if ts < us || te > ue {
				t.Fatalf("aligned interval [%d,%d) outside group interval [%d,%d)", ts, te, us, ue)
			}
			out = append(out, []any{minAge, name, us, ue, ts, te})
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("rows.Err: %v", err)
		}
		rows.Close()
		if n == 0 {
			t.Fatalf("Query(%d): no rows", minAge)
		}
	}
	return out
}

// TestStockConsumerEmbedded runs the consumer against the in-process
// engine.
func TestStockConsumerEmbedded(t *testing.T) {
	runConsumer(t, "talign://demo")
}

// TestStockConsumerRemote runs the identical consumer against a talignd
// server and requires identical results.
func TestStockConsumerRemote(t *testing.T) {
	emb := runConsumer(t, "talign://demo")
	rem := runConsumer(t, remoteDSN(t))
	if !reflect.DeepEqual(emb, rem) {
		t.Fatalf("embedded and remote driver results differ:\n%v\n%v", emb, rem)
	}
}

// TestDriverAdHocAndExplain covers un-prepared QueryContext, EXPLAIN's
// plan rows and ANALYZE through Exec.
func TestDriverAdHocAndExplain(t *testing.T) {
	db, err := sql.Open("talign", "talign://demo")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var count int64
	err = db.QueryRowContext(context.Background(),
		"SELECT COUNT(*) c, n FROM r GROUP BY n ORDER BY n LIMIT 1").Scan(&count, new(string), new(int64), new(int64))
	if err != nil || count != 2 {
		t.Fatalf("ad-hoc aggregate: count=%d err=%v", count, err)
	}

	rows, err := db.QueryContext(context.Background(), "EXPLAIN SELECT n FROM r")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, _ := rows.Columns()
	if !reflect.DeepEqual(cols, []string{"plan"}) {
		t.Fatalf("EXPLAIN columns = %v", cols)
	}
	var lines []string
	for rows.Next() {
		var l string
		if err := rows.Scan(&l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if len(lines) == 0 || !contains(lines, "SeqScan r") {
		t.Fatalf("EXPLAIN lines = %v", lines)
	}

	if _, err := db.ExecContext(context.Background(), "ANALYZE p"); err != nil {
		t.Fatalf("Exec ANALYZE: %v", err)
	}

	// Transactions are refused.
	if _, err := db.BeginTx(context.Background(), nil); err == nil {
		t.Fatal("BeginTx succeeded")
	}

	// Wrong placeholder count is caught before execution.
	if _, err := db.QueryContext(context.Background(), "SELECT n FROM r WHERE n = $1"); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

// TestDriverContextCancel: a cancelled context aborts a long-running
// driver query.
func TestDriverContextCancel(t *testing.T) {
	dsn := "talign://?analyze=0"
	db, err := sql.Open("talign", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedBig(t, dsn)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x")
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
			t.Fatal("cancelled query kept producing")
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

func contains(lines []string, sub string) bool {
	for _, l := range lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// seedBig registers a large relation in the shared embedded DB behind
// dsn (test scaffolding: uses the driver's native escape hatch).
func seedBig(t *testing.T, dsn string) {
	t.Helper()
	b := relation.NewBuilder("v int")
	for i := 0; i < 3000; i++ {
		b.Row(int64(i%11), int64(i%11)+40, int64(i))
	}
	db, err := sqldriver.Shared(dsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register("big", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
}

// TestDriverRowsSurviveIteration: values scanned through database/sql
// stay intact across later Next calls, after Close and after a
// collection on both DSN forms — the driver sits on a cursor that reads
// the backend's batches in place — at a batch size that makes the result
// span several executor batches, with a filter's selection, an outer
// join's ω padding and string cells on the way.
func TestDriverRowsSurviveIteration(t *testing.T) {
	for _, q := range []string{
		`SELECT x.a, y.mn FROM p x LEFT JOIN (SELECT a, mn FROM p WHERE a >= 40) y ON x.a = y.a WHERE x.a >= 20`,
		`SELECT x.n, y.n yn FROM r x LEFT JOIN (SELECT n FROM r WHERE n = 'Ann') y ON x.n = y.n WHERE x.Ts >= 0`,
	} {
		var results [2][]string
		for i, dsn := range []string{"talign://demo?batch=2", remoteDSN(t) + "?batch=2"} {
			db, err := sql.Open("talign", dsn)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := db.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", dsn, err)
			}
			var kept [][4]any
			var want []string
			for rows.Next() {
				var r [4]any // two visible columns and the valid-time bounds ts, te
				if err := rows.Scan(&r[0], &r[1], &r[2], &r[3]); err != nil {
					t.Fatal(err)
				}
				kept = append(kept, r)
				want = append(want, fmt.Sprint(r))
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			rows.Close()
			db.Close()
			runtime.GC()
			if len(kept) < 3 || !strings.Contains(fmt.Sprint(want), "<nil>") {
				t.Fatalf("%s: %v neither spans batches of 2 nor carries ω", dsn, want)
			}
			for r := range kept {
				if got := fmt.Sprint(kept[r]); got != want[r] {
					t.Errorf("%s: row %d reads %s after Close, was %s", dsn, r, got, want[r])
				}
			}
			sort.Strings(want)
			results[i] = want
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: embedded %v, remote %v", q, results[0], results[1])
		}
	}
}
