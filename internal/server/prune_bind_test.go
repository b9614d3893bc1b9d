package server_test

import (
	"fmt"
	"testing"

	"talign/internal/exec"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqltest"
	"talign/internal/storage"
	"talign/internal/value"
)

// pruneServer serves one table t(k int) of 64 rows, row i valid over
// [i, i+2), from a segment store cut into 8 segments of 8 rows in valid
// time order: segment j holds Ts in [8j, 8j+7].
func pruneServer(t *testing.T) *server.Server {
	t.Helper()
	b := relation.NewBuilder("k int")
	for i := int64(0); i < 64; i++ {
		b.Row(i, i+2, i)
	}
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.SegmentRows = 8
	if err := store.CreateTable("t", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Flags: plan.DefaultFlags()})
	if _, err := srv.UseStore(store); err != nil {
		t.Fatal(err)
	}
	srv.AnalyzeAll()
	return srv
}

// TestBindTimePruning: zone-map pruning resolves its bounds from the
// values bound at each execution. A prepared WHERE Ts >= $1 (and BETWEEN
// $1 AND $2) prunes exactly the segments the literal text prunes; so
// does ad-hoc text whose literals were lifted into a plan built for other
// literals; and rebinding to a value inside a zone an earlier execution
// pruned returns that zone's rows — a plan that pruned with the values
// it was first costed with (the peeked ones) fails here.
func TestBindTimePruning(t *testing.T) {
	srv := pruneServer(t)
	// run executes one statement and reports its rows and how many
	// segments it scanned and pruned.
	run := func(stmt, sql string, params ...value.Value) (rows int, scanned, pruned uint64) {
		t.Helper()
		s0, p0 := exec.SegmentsScanned(), exec.SegmentsPruned()
		res, err := sqltest.Run(t.Context(), srv, "", stmt, sql, params, 0)
		if err != nil {
			t.Fatalf("%s%s %v: %v", stmt, sql, params, err)
		}
		return res.Rel.Len(), exec.SegmentsScanned() - s0, exec.SegmentsPruned() - p0
	}
	if _, err := srv.Prepare("", "ge", "SELECT k, Ts, Te FROM t WHERE Ts >= $1"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Prepare("", "btw", "SELECT k FROM t WHERE Ts BETWEEN $1 AND $2"); err != nil {
		t.Fatal(err)
	}

	// High bound first: every plan below is first costed (and, were the
	// peeked value to leak, pruned) with Ts >= 56, which keeps one segment.
	for _, lo := range []int64{56, 40, 8, 0, 63, 64, 17} {
		wantRows := max(64-lo, 0)
		wantScanned := uint64((64 - lo + 7) / 8)
		if lo >= 64 {
			wantScanned = 0
		}
		lr, ls, lp := run("", fmt.Sprintf("SELECT k, Ts, Te FROM t WHERE Ts >= %d", lo))
		if lr != int(wantRows) || ls != wantScanned || ls+lp != 8 {
			t.Errorf("literal Ts >= %d: %d rows, %d scanned, %d pruned; want %d rows, %d scanned of 8", lo, lr, ls, lp, wantRows, wantScanned)
		}
		pr, ps, pp := run("ge", "", value.NewInt(lo))
		if pr != lr || ps != ls || pp != lp {
			t.Errorf("prepared Ts >= $1 = %d: %d rows, %d scanned, %d pruned; the literal text has %d, %d, %d", lo, pr, ps, pp, lr, ls, lp)
		}
	}
	for _, b := range [][2]int64{{60, 63}, {0, 7}, {20, 29}, {30, 10}, {-5, 100}} {
		lr, ls, lp := run("", fmt.Sprintf("SELECT k FROM t WHERE Ts BETWEEN %d AND %d", b[0], b[1]))
		pr, ps, pp := run("btw", "", value.NewInt(b[0]), value.NewInt(b[1]))
		if pr != lr || ps != ls || pp != lp {
			t.Errorf("prepared BETWEEN %d AND %d: %d rows, %d scanned, %d pruned; the literal text has %d, %d, %d", b[0], b[1], pr, ps, pp, lr, ls, lp)
		}
		if want := max(min(b[1], 63)-max(b[0], 0)+1, 0); lr != int(want) {
			t.Errorf("BETWEEN %d AND %d: %d rows, want %d", b[0], b[1], lr, want)
		}
		if lp == 0 && ls == 8 && b[1]-b[0] < 16 {
			t.Errorf("BETWEEN %d AND %d pruned nothing", b[0], b[1])
		}
	}
	// Two prepared statements and two ad-hoc shapes (their hidden slots make
	// them shapes of their own), however many literals ran through them.
	if st := srv.CacheStats(); st.Plans != 4 {
		t.Errorf("%d plans built, want 4", st.Plans)
	}
}
