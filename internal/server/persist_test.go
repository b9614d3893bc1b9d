package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"talign/internal/csvio"
	"talign/internal/faultinject"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqltest"
	"talign/internal/storage"
)

// writeTortureCSV writes an n-row CSV whose valid times march forward,
// so small segments partition time cleanly.
func writeTortureCSV(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("a:int,tag:string,ts,te\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,row%d,%d,%d\n", i%9, i, i, i+4)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// rawBody POSTs and returns the exact response bytes, so restart
// comparisons are byte-identical, not merely set-equal.
func rawBody(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, raw
}

// TestServerRestartServesIdenticalResults is the end-to-end persistence
// contract: CREATE TABLE ... FROM CSV through one server, restart onto
// the same data directory, and every query response — including row
// order under ORDER BY and the streaming NDJSON frames — is
// byte-identical to the pre-restart answer.
func TestServerRestartServesIdenticalResults(t *testing.T) {
	dataDir := t.TempDir()
	csvPath := writeTortureCSV(t, 100)
	queries := []string{
		`{"sql": "SELECT a, tag, Ts, Te FROM big WHERE Ts >= 50 ORDER BY Ts, tag"}`,
		`{"sql": "SELECT a, COUNT(*) AS c FROM big GROUP BY a ORDER BY a"}`,
		`{"sql": "SELECT a, Ts, Te FROM ((SELECT a FROM big WHERE Ts >= 80) q ALIGN big ON q.a = big.a) x ORDER BY Ts, Te, a"}`,
	}

	openServer := func() (*Server, *storage.Store, *httptest.Server) {
		st, err := storage.Open(dataDir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		st.SegmentRows = 16
		s := New(Config{Flags: plan.DefaultFlags()})
		if _, err := s.UseStore(st); err != nil {
			t.Fatalf("UseStore: %v", err)
		}
		return s, st, httptest.NewServer(s.Handler())
	}

	s1, st1, ts1 := openServer()
	code, out := rawBody(t, ts1, "/query", fmt.Sprintf(`{"sql": "CREATE TABLE big FROM CSV '%s'"}`, csvPath))
	if code != http.StatusOK {
		t.Fatalf("CREATE TABLE status %d: %s", code, out)
	}
	if !s1.Store().Has("big") {
		t.Fatal("CREATE TABLE did not persist to the store")
	}
	before := make([][]byte, len(queries))
	for i, q := range queries {
		code, raw := rawBody(t, ts1, "/query", q)
		if code != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, code, raw)
		}
		before[i] = raw
	}
	_, streamBefore := rawBody(t, ts1, "/query/stream", queries[0])
	ts1.Close()
	if err := st1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st1.Close()

	// Cold restart onto the same directory: the table must come back
	// without any CSV in sight, serving the same bytes.
	_, st2, ts2 := openServer()
	defer ts2.Close()
	defer st2.Close()
	for i, q := range queries {
		code, raw := rawBody(t, ts2, "/query", q)
		if code != http.StatusOK {
			t.Fatalf("restarted query %d status %d: %s", i, code, raw)
		}
		if string(raw) != string(before[i]) {
			t.Fatalf("restarted server diverged on query %d:\nbefore: %s\nafter:  %s", i, before[i], raw)
		}
	}
	if _, streamAfter := rawBody(t, ts2, "/query/stream", queries[0]); string(streamAfter) != string(streamBefore) {
		t.Fatalf("restarted stream diverged:\nbefore: %s\nafter:  %s", streamBefore, streamAfter)
	}

	// The restart must land on segment-backed relations: a valid-time
	// filter over the reloaded table shows pruned segments in EXPLAIN
	// ANALYZE.
	code, raw := rawBody(t, ts2, "/query", `{"sql": "EXPLAIN ANALYZE SELECT a FROM big WHERE Ts >= 50"}`)
	if code != http.StatusOK {
		t.Fatalf("explain analyze status %d: %s", code, raw)
	}
	if !strings.Contains(string(raw), "pruned=") || strings.Contains(string(raw), "pruned=0") {
		t.Fatalf("reloaded table shows no segment pruning: %s", raw)
	}
}

// TestServerDropTablePersists pins DROP TABLE durability: a dropped
// table stays gone across restart, and its files leave the directory.
func TestServerDropTablePersists(t *testing.T) {
	dataDir := t.TempDir()
	csvPath := writeTortureCSV(t, 30)

	st, err := storage.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Flags: plan.DefaultFlags()})
	if _, err := s.UseStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	if code, out := rawBody(t, ts, "/query", fmt.Sprintf(`{"sql": "CREATE TABLE gone FROM CSV '%s'"}`, csvPath)); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, out)
	}
	if code, out := rawBody(t, ts, "/query", `{"sql": "DROP TABLE gone"}`); code != http.StatusOK {
		t.Fatalf("drop: %d %s", code, out)
	}
	if code, out := rawBody(t, ts, "/query", `{"sql": "SELECT a FROM gone"}`); code == http.StatusOK {
		t.Fatalf("dropped table still answers queries: %s", out)
	}
	ts.Close()
	st.Close()

	st2, err := storage.Open(dataDir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Has("gone") {
		t.Fatal("dropped table resurrected on restart")
	}
	s2 := New(Config{Flags: plan.DefaultFlags()})
	if n, err := s2.UseStore(st2); err != nil || n != 0 {
		t.Fatalf("UseStore after drop: n=%d err=%v", n, err)
	}
}

// TestCreateTableFailedLoadLeavesNameFree: a CREATE TABLE whose table
// persists but cannot be loaded back must not strand the name — in the
// store ("already exists") but not the catalog ("unknown table"). The
// failed CREATE drops what it persisted, and DROP TABLE also removes a
// table that only the store knows.
func TestCreateTableFailedLoadLeavesNameFree(t *testing.T) {
	csvPath := writeTortureCSV(t, 30)
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Flags: plan.DefaultFlags()})
	if _, err := s.UseStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	create := fmt.Sprintf(`{"sql": "CREATE TABLE c FROM CSV '%s'"}`, csvPath)

	defer faultinject.Reset()
	faultinject.Arm("storage.load", faultinject.Fault{Kind: faultinject.KindError})
	if code, out := rawBody(t, ts, "/query", create); code == http.StatusOK || !strings.Contains(string(out), "storage.load") {
		t.Fatalf("create under a failing load: %d %s", code, out)
	}
	if st.Has("c") {
		t.Fatal("the failed CREATE left its table in the store")
	}
	if code, out := rawBody(t, ts, "/query", create); code != http.StatusOK {
		t.Fatalf("create after the failed one: %d %s", code, out)
	}
	if code, out := rawBody(t, ts, "/query", `{"sql": "DROP TABLE c"}`); code != http.StatusOK {
		t.Fatalf("drop: %d %s", code, out)
	}

	// A table only the store knows (its catalog half never happened).
	rel, err := csvio.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("c", rel); err != nil {
		t.Fatal(err)
	}
	if code, out := rawBody(t, ts, "/query", `{"sql": "DROP TABLE c"}`); code != http.StatusOK || st.Has("c") {
		t.Fatalf("drop of a store-only table: %d %s (still stored: %v)", code, out, st.Has("c"))
	}
	if code, out := rawBody(t, ts, "/query", `{"sql": "DROP TABLE c"}`); code == http.StatusOK || !strings.Contains(string(out), "unknown table") {
		t.Fatalf("drop of a table nobody knows: %d %s", code, out)
	}
}

// TestMetricsExposeStorageCounters checks the new storage and pruning
// rows appear on /metrics with live values.
func TestMetricsExposeStorageCounters(t *testing.T) {
	dataDir := t.TempDir()
	csvPath := writeTortureCSV(t, 60)
	st, err := storage.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SegmentRows = 8
	s := New(Config{Flags: plan.DefaultFlags()})
	if _, err := s.UseStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, out := rawBody(t, ts, "/query", fmt.Sprintf(`{"sql": "CREATE TABLE m FROM CSV '%s'"}`, csvPath)); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, out)
	}
	if code, out := rawBody(t, ts, "/query", `{"sql": "SELECT a FROM m WHERE Ts >= 40"}`); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, metric := range []string{
		"talignd_segments_scanned_total",
		"talignd_segments_pruned_total",
		"talignd_storage_wal_appends_total",
		"talignd_storage_wal_replayed_total",
		"talignd_storage_checkpoints_total",
		"talignd_storage_segments_written_total",
		"talignd_storage_segments_loaded_total",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics lacks %s:\n%s", metric, body)
		}
	}
	// The CREATE above wrote segments and a WAL record; those counters
	// must be nonzero now (process-wide, so >= is all we can pin).
	for _, metric := range []string{
		"talignd_storage_wal_appends_total 0\n",
		"talignd_storage_segments_written_total 0\n",
	} {
		if strings.Contains(body, metric) {
			t.Fatalf("%q stuck at zero after CREATE TABLE:\n%s", strings.TrimSpace(metric), body)
		}
	}
}

// TestConcurrentDDLOneName: CREATE TABLE / DROP TABLE of one name from 8
// goroutines are serialised by the server's DDL mutex. Memory-only, two
// racing CREATEs never both succeed (every success is matched by a DROP
// before the next); on a store, the catalog and the store's manifest
// agree afterwards — no CREATE slipped between a DROP's store and catalog
// halves and left a table on disk that the catalog has forgotten. Run
// under -race.
func TestConcurrentDDLOneName(t *testing.T) {
	csvPath := writeTortureCSV(t, 40)
	for _, withStore := range []bool{false, true} {
		s := New(Config{Flags: plan.DefaultFlags()})
		var st *storage.Store
		if withStore {
			var err error
			if st, err = storage.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.SegmentRows = 16
			if _, err := s.UseStore(st); err != nil {
				t.Fatal(err)
			}
		}
		var created, dropped atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if (g+i)%2 == 0 {
						if _, err := s.CreateTable("c", csvPath); err == nil {
							created.Add(1)
						} else if !strings.Contains(err.Error(), "already exists") {
							t.Errorf("CREATE: %v", err)
						}
					} else if err := s.DropTable("c"); err == nil {
						dropped.Add(1)
					} else if !strings.Contains(err.Error(), "unknown table") {
						t.Errorf("DROP: %v", err)
					}
				}
			}(g)
		}
		wg.Wait()
		_, inCatalog := s.Catalog().Snapshot().Lookup("c")
		live := created.Load() - dropped.Load()
		if live != 0 && live != 1 || (live == 1) != inCatalog {
			t.Errorf("store=%v: %d CREATEs and %d DROPs succeeded, table in catalog: %v", withStore, created.Load(), dropped.Load(), inCatalog)
		}
		if withStore {
			if onDisk := st.Has("c"); onDisk != inCatalog {
				t.Errorf("catalog has c: %v, store has c: %v (tables %v)", inCatalog, onDisk, st.Tables())
			}
		}
	}
}

// TestCursorSurvivesDropTable: a cursor opened before DROP TABLE drains
// the same rows after it, over memory and over a segment store — there
// the scan reads zero-copy views of segment files that DROP deletes, and
// whose mappings now die with their last reader: the open operator tree
// is a reader, through collections and all. New statements see the table
// gone at once.
func TestCursorSurvivesDropTable(t *testing.T) {
	csvPath := writeTortureCSV(t, 300)
	// The time predicate gives the scan zone-map bounds, which selects the
	// segment scan (it prunes nothing).
	const sql = "SELECT a, tag, Ts, Te FROM big WHERE Ts >= 0"
	for _, withStore := range []bool{false, true} {
		s := New(Config{Flags: plan.DefaultFlags()})
		if withStore {
			st, err := storage.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.SegmentRows = 16
			if _, err := s.UseStore(st); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.CreateTable("big", csvPath); err != nil {
			t.Fatal(err)
		}
		want := sqltest.MustRun(t, s, sql)
		rs, err := s.StreamBatch(context.Background(), "", "", sql, nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		got := relation.New(want.Rel.Schema)
		first, err := rs.Next()
		if err != nil || len(first) == 0 {
			t.Fatalf("store=%v: first batch: %d rows, %v", withStore, len(first), err)
		}
		got.Tuples = append(got.Tuples, first...)
		if err := s.DropTable("big"); err != nil {
			t.Fatal(err)
		}
		if _, err := sqltest.Run(t.Context(), s, "", "", sql, nil, 0); err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Fatalf("store=%v: query after DROP TABLE: %v, want unknown table", withStore, err)
		}
		for {
			runtime.GC() // nothing but the cursor holds the relation now
			b, err := rs.Next()
			if err != nil {
				t.Fatalf("store=%v: draining after DROP TABLE: %v", withStore, err)
			}
			if len(b) == 0 {
				break
			}
			got.Tuples = append(got.Tuples, b...)
		}
		rs.Close()
		if want.Rel.Len() != 300 || !relation.SetEqual(got, want.Rel) {
			t.Errorf("store=%v: cursor drained %d rows after DROP TABLE, the table had %d", withStore, got.Len(), want.Rel.Len())
		}
	}
}
