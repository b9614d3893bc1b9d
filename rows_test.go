package talign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"talign/internal/faultinject"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/value"
)

// cursorRel is a relation big enough to span several executor batches at
// batch=2, with ω cells, NaN/±Inf floats and periods in its own data.
func cursorRel() *relation.Relation {
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.5}
	b := relation.NewBuilder("k int", "s string", "f float", "p period")
	for i := 0; i < 9; i++ {
		var s, p any = fmt.Sprintf("row-%d", i), interval.New(int64(i), int64(i)+2)
		if i%4 == 3 {
			s, p = nil, nil
		}
		b.Row(int64(i), int64(i)+3, i%3, s, floats[i%4], p)
	}
	return b.MustBuild()
}

// cursorQueries cover the shapes a batch reaches the client in: a
// filter's selection vector over shared column storage, a hash join's
// gathered batch with ω padding, an aggregate, an absorb, and a row root.
var cursorQueries = []string{
	"SELECT k, s, f, p, Ts, Te FROM t WHERE k >= 1",
	"SELECT x.k, x.s, x.f, y.p yp FROM t x LEFT JOIN (SELECT k, p FROM t WHERE k = 2) y ON x.k = y.k",
	"SELECT k, COUNT(s) c, MIN(s) m, Ts, Te FROM (t a NORMALIZE t b USING (k)) x GROUP BY k, Ts, Te",
	"SELECT ABSORB k, s, Ts, Te FROM t",
	"SELECT k, s, f FROM t ORDER BY s, k",
}

// cursorDBs opens both DSN schemes at batch=2 over the given relations;
// retry=0 keeps an injected fault from being masked by a retried query.
func cursorDBs(t *testing.T, rels map[string]*relation.Relation) [2]*DB {
	t.Helper()
	emb, err := Open("talign://mem?batch=2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { emb.Close() })
	srv := server.New(server.Config{})
	for name, rel := range rels {
		if err := emb.Register(name, rel); err != nil {
			t.Fatal(err)
		}
		srv.Catalog().Register(name, rel)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rem, err := Open("talignd://" + strings.TrimPrefix(ts.URL, "http://") + "?batch=2&retry=0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rem.Close() })
	return [2]*DB{emb, rem}
}

// offRow asserts the cursor is outside a row: no values, Scan fails.
func offRow(t *testing.T, rows *Rows, when string) {
	t.Helper()
	if v := rows.Values(); v != nil {
		t.Errorf("%s: Values() = %v, want nil", when, v)
	}
	dest := make([]any, len(rows.Columns()))
	for i := range dest {
		dest[i] = new(any)
	}
	if err := rows.Scan(dest...); err == nil || !strings.Contains(err.Error(), "without a successful Next") {
		t.Errorf("%s: Scan error = %v, want \"Scan called without a successful Next\"", when, err)
	}
}

// scanAny scans the current row into fresh *any destinations.
func scanAny(t *testing.T, rows *Rows) []any {
	t.Helper()
	out := make([]any, len(rows.Columns()))
	dest := make([]any, len(out))
	for i := range dest {
		dest[i] = &out[i]
	}
	if err := rows.Scan(dest...); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCursorContract: Rows reads the backend's batch in place, so what it
// promises is exactly this — Values is one buffer, valid until the next
// Next; a clone of it and everything Scan stored are the caller's and
// read the same after the cursor has moved on, closed, and the batches
// it read were collected (the executor reuses its batches and the wire
// decoder its buffer, so a cell that aliased either would change); and
// outside a row there is nothing to read — on both DSN schemes.
func TestCursorContract(t *testing.T) {
	dbs := cursorDBs(t, map[string]*relation.Relation{"t": cursorRel()})
	var seen strings.Builder
	for _, q := range cursorQueries {
		var rendered [2][]string
		for i, db := range dbs {
			rows, err := db.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			tag := fmt.Sprintf("backend %d, %s", i, q)
			offRow(t, rows, tag+": before the first Next")
			var clones [][]value.Value
			var scans [][]any
			var want, wantScan []string // rendered while current
			var buf *value.Value        // where Values() lives, for the whole cursor
			for rows.Next() {
				first := scanAny(t, rows) // Scan before Values has filled the buffer
				vals := rows.Values()
				again := rows.Values()
				if &vals[0] != &again[0] || fmt.Sprint(vals) != fmt.Sprint(again) {
					t.Fatalf("%s: two Values() calls on one row disagree: %v, %v", tag, vals, again)
				}
				if buf == nil {
					buf = &vals[0]
				} else if buf != &vals[0] {
					t.Fatalf("%s: Values() moved to another backing slice", tag)
				}
				scanned := scanAny(t, rows)
				asGo := make([]any, len(vals))
				for c, v := range vals {
					asGo[c] = goValue(v)
				}
				if fmt.Sprint(first) != fmt.Sprint(scanned) || fmt.Sprint(scanned) != fmt.Sprint(asGo) {
					t.Fatalf("%s: Scan %v, Values %v, Scan again %v", tag, first, asGo, scanned)
				}
				clones = append(clones, slices.Clone(vals))
				scans = append(scans, scanned)
				want = append(want, fmt.Sprint(vals))
				wantScan = append(wantScan, fmt.Sprint(scanned))
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			offRow(t, rows, tag+": after the last Next")
			rows.Close()
			offRow(t, rows, tag+": after Close")
			if len(clones) < 3 {
				t.Fatalf("%s: %d rows do not span batches of 2", tag, len(clones))
			}
			runtime.GC()
			for r := range clones {
				if got := fmt.Sprint(clones[r]); got != want[r] {
					t.Errorf("%s: cloned row %d reads %s after Close, was %s", tag, r, got, want[r])
				}
				if got := fmt.Sprint(scans[r]); got != wantScan[r] {
					t.Errorf("%s: scanned row %d reads %s after Close, was %s", tag, r, got, wantScan[r])
				}
			}
			rendered[i] = want
		}
		sort.Strings(rendered[0])
		sort.Strings(rendered[1])
		if fmt.Sprint(rendered[0]) != fmt.Sprint(rendered[1]) {
			t.Errorf("%s: embedded %v, remote %v", q, rendered[0], rendered[1])
		}
		if !strings.Contains(fmt.Sprint(rendered[0]), "ω") {
			t.Errorf("%s: no ω cell reached the client: %v", q, rendered[0])
		}
		fmt.Fprint(&seen, rendered[0])
	}
	for _, cell := range []string{"NaN", "+Inf", "-Inf", "[4, 6)", "row-8"} {
		if !strings.Contains(seen.String(), cell) {
			t.Errorf("no %s cell reached the client", cell)
		}
	}
}

// TestCursorOffRowAfterError: a cursor that failed mid-stream — its
// context cancelled, or a fault injected into the frame decoder — is
// outside a row: it must not keep serving the last row, which would be a
// view into a torn-down executor or a hung-up stream.
func TestCursorOffRowAfterError(t *testing.T) {
	big := relation.NewBuilder("v int")
	for i := 0; i < 3000; i++ {
		big.Row(int64(i%11), int64(i%11)+40, int64(i))
	}
	dbs := cursorDBs(t, map[string]*relation.Relation{"t": cursorRel(), "big": big.MustBuild()})
	for i, db := range dbs {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.Query(ctx, "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x")
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() || rows.Values() == nil {
			t.Fatalf("backend %d: no first row: %v", i, rows.Err())
		}
		cancel()
		for n := 0; rows.Next(); n++ {
			if n > 5_000_000 {
				t.Fatalf("backend %d: cancelled cursor kept producing rows", i)
			}
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("backend %d: Err = %v, want context.Canceled", i, err)
		}
		offRow(t, rows, fmt.Sprintf("backend %d: after a cancelled context", i))
		rows.Close()
	}

	t.Cleanup(faultinject.Reset)
	// Visits: the schema frame, one rows frame, then the fault.
	faultinject.Arm("wire.decode", faultinject.Fault{Kind: faultinject.KindError, After: 2})
	rows, err := dbs[1].Query(context.Background(), cursorQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n == 0 || rows.Err() == nil || faultinject.Fired() != 1 {
		t.Fatalf("read %d rows, Err = %v, %d faults fired; want one batch, then the injected error", n, rows.Err(), faultinject.Fired())
	}
	offRow(t, rows, "after an injected wire.decode fault")
}

// TestScanFloatIntoInt: a float column scans into *int64 and *int only
// when it holds a whole number the destination can represent. The bounds
// are exact: -2⁶³ is math.MinInt64, +2⁶³ is one past math.MaxInt64, and
// NaN, ±Inf and 1e30 — which passed the old f == Trunc(f) test and came
// back as whatever the platform's conversion makes of them — are errors.
func TestScanFloatIntoInt(t *testing.T) {
	cases := []struct {
		f    float64
		want int64
		ok   bool
	}{
		{3, 3, true},
		{math.Copysign(0, -1), 0, true},
		{-7, -7, true},
		{1 << 53, 1 << 53, true},
		{-(1 << 63), math.MinInt64, true},
		{math.Nextafter(1<<63, 0), 1<<63 - 1024, true},
		{1 << 63, 0, false},
		{math.Nextafter(-(1 << 63), math.Inf(-1)), 0, false},
		{1e30, 0, false},
		{1.5, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
	}
	b := relation.NewBuilder("f float")
	for i, c := range cases {
		b.Row(int64(i), int64(i)+1, c.f) // Ts is the case's index
	}
	for i, db := range cursorDBs(t, map[string]*relation.Relation{"fl": b.MustBuild()}) {
		rows, err := db.Query(context.Background(), "SELECT f, Ts, Te FROM fl")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; rows.Next(); n++ {
			var ts, te, got64 int64
			var got int
			if err := rows.Scan(new(any), &ts, &te); err != nil {
				t.Fatal(err)
			}
			c := cases[ts]
			err64 := rows.Scan(&got64, &ts, &te)
			errInt := rows.Scan(&got, &ts, &te)
			if ok := err64 == nil; ok != c.ok || (ok && got64 != c.want) {
				t.Errorf("backend %d: %v into *int64: %d, %v; want %d, ok=%v", i, c.f, got64, err64, c.want, c.ok)
			}
			fits := c.ok && int64(int(c.want)) == c.want // the platform's int
			if ok := errInt == nil; ok != fits || (ok && int64(got) != c.want) {
				t.Errorf("backend %d: %v into *int: %d, %v; want %d, ok=%v", i, c.f, got, errInt, c.want, fits)
			}
			for _, err := range []error{err64, errInt} {
				if err != nil && !strings.Contains(err.Error(), "cannot scan float into") {
					t.Errorf("backend %d: %v: error %q is not the cannot-scan error", i, c.f, err)
				}
			}
		}
		if err := rows.Err(); err != nil || n != len(cases) {
			t.Fatalf("backend %d: %d of %d rows, err %v", i, n, len(cases), err)
		}
		rows.Close()
	}
}
