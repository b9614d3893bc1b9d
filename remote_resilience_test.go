package talign

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"talign/internal/colbatch"
	"talign/internal/dataset"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// flaky503 wraps a real talignd handler and fails the first n requests
// with 503, the way a draining replica behind a load balancer would.
type flaky503 struct {
	inner http.Handler
	n     int32
	seen  atomic.Int32
}

func (f *flaky503) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.seen.Add(1) <= f.n {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"unavailable","message":"draining"}}`))
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestClientRetries503 proves the wire client retries transient 503s
// with backoff: an Open against a server that refuses the first two
// upgrades must still succeed, and so must a query.
func TestClientRetries503(t *testing.T) {
	srv := server.New(server.Config{})
	r, p := dataset.Demo()
	srv.Catalog().Register("r", r)
	srv.Catalog().Register("p", p)
	flaky := &flaky503{inner: srv.Handler(), n: 2}
	ts := httptest.NewServer(flaky)
	t.Cleanup(ts.Close)

	db, err := Open(ts.URL) // default retry=2 absorbs both refusals
	if err != nil {
		t.Fatalf("Open through flaky server: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	if n := countRows(t, db, "SELECT n FROM r"); n == 0 {
		t.Fatal("no rows")
	}
}

// countRows drains one statement, failing the test on an error.
func countRows(t *testing.T, db *DB, sql string, args ...any) int {
	t.Helper()
	rows, err := db.Query(context.Background(), sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

// TestClientRetryDisabled proves retry=0 turns retries off: the first
// 503 surfaces as the structured "unavailable" error.
func TestClientRetryDisabled(t *testing.T) {
	srv := server.New(server.Config{})
	flaky := &flaky503{inner: srv.Handler(), n: 1}
	ts := httptest.NewServer(flaky)
	t.Cleanup(ts.Close)

	_, err := Open(ts.URL + "?retry=0")
	if err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("Open with retry=0 against 503: %v, want unavailable", err)
	}
}

// TestRemoteClientTimeout proves the timeout= DSN option arms a
// client-side deadline over the whole remote stream: a slow ALIGN dies
// with a deadline error instead of hanging.
func TestRemoteClientTimeout(t *testing.T) {
	srv := server.New(server.Config{})
	// 8 000 mutually overlapping rows: the self-ALIGN reads 64M group
	// candidates (about 0.4 s on 2 vCPUs), several times the timeout.
	b := relation.NewBuilder("v int")
	for i := 0; i < 8000; i++ {
		b.Row(int64(i%13), int64(i%13)+50, int64(i))
	}
	srv.Catalog().Register("big", b.MustBuild())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	db, err := Open(ts.URL + "?timeout=100ms")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })

	rows, err := db.Query(context.Background(), "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x")
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if err == nil {
		t.Fatal("slow query under timeout=100ms succeeded")
	}
	// The deadline can surface client-side (the connection's deadline) or
	// server-side (structured "timeout" frame), depending on who notices
	// first; both are correct.
	if !errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("got %v, want a deadline error", err)
	}
}

// rawFrame assembles a binary frame of the given kind byte around any
// payload, checksummed — the way to build frames wire.Writer refuses to.
func rawFrame(kind byte, payload []byte) []byte {
	b := []byte{'T', 'F', wire.BatchFrameVersion, kind}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// frameFake serves GET /frames as talignd does, but answers each request
// frame with the bytes answer gives it (canned, possibly malformed
// frames), hanging up after them unless answer says to keep going.
func frameFake(t *testing.T, answer func(req wire.Frame) (out []byte, keep bool)) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.FrameProtocol+"\r\n\r\n")
		dec := wire.NewDecoder(rw.Reader)
		for keep := true; keep; {
			req, err := dec.Next()
			if err != nil {
				return
			}
			var out []byte
			out, keep = answer(req)
			conn.Write(out)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// frames encodes frames, then appends raw bytes.
func frames(t *testing.T, raw []byte, fs ...wire.Frame) []byte {
	var buf bytes.Buffer
	fw := wire.NewWriter(&buf, wire.MediaBatch)
	for _, f := range fs {
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	return append(buf.Bytes(), raw...)
}

var (
	fakeSchema = wire.Frame{Frame: wire.FrameSchema, Columns: []string{"v", "ts", "te"}, Types: []string{"int", "int", "int"}}
	fakeRows   = func() wire.Frame {
		b := colbatch.New(schema.MustNew(schema.Attr{Name: "v", Type: value.KindInt}))
		for i := int64(0); i < 2; i++ {
			b.AppendTuple(tuple.Tuple{Vals: []value.Value{value.NewInt(i)}, T: interval.New(i, i+1)})
		}
		return wire.Frame{Frame: wire.FrameRows, Batch: b}
	}()
	fakeUnavailable = wire.Frame{Frame: wire.FrameError, Error: &wire.Error{Code: sqlish.ErrUnavailable, Message: "draining"}}
)

// TestClientRejectsMalformedStreams: an error frame without its error
// object (which used to reach the caller as a typed-nil error whose
// Error() panics), a status frame that disagrees with the rows received,
// and a server that answers the upgrade without a 101 are the client's
// structured "bad stream" error, whether the defect is the first frame
// or arrives after rows were handed out.
func TestClientRejectsMalformedStreams(t *testing.T) {
	var answer atomic.Pointer[[]byte]
	ts := frameFake(t, func(wire.Frame) ([]byte, bool) { return *answer.Load(), true })
	db, err := Open(ts.URL + "?retry=0")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })

	bodyless := rawFrame(5, nil)
	for _, tc := range []struct {
		name     string
		body     []byte
		wantRows int // rows handed out before the error
		want     string
	}{
		{"body-less error frame first", bodyless, -1, "error frame"},
		{"body-less error frame after rows", frames(t, bodyless, fakeSchema, fakeRows), 2, "error frame"},
		{"status frame counts a row too many", frames(t, nil, fakeSchema, fakeRows, wire.Frame{Frame: wire.FrameStatus, RowCount: 3}), 2, "status frame reports 3 rows, the stream carried 2"},
		{"dropped rows frame", frames(t, nil, fakeSchema, wire.Frame{Frame: wire.FrameStatus, RowCount: 2}), 0, "status frame reports 2 rows, the stream carried 0"},
	} {
		answer.Store(&tc.body)
		got := 0
		res, err := db.Query(context.Background(), "SELECT v FROM t")
		if err == nil {
			for res.Next() {
				got++
			}
			err = res.Err()
			res.Close()
		} else {
			got = -1
		}
		if err == nil || !strings.Contains(err.Error(), "talign: bad stream") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a bad-stream error mentioning %q", tc.name, err, tc.want)
		}
		if got != tc.wantRows {
			t.Errorf("%s: %d rows before the error, want %d", tc.name, got, tc.wantRows)
		}
	}

	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{"ok":true}`)) }))
	t.Cleanup(plain.Close)
	if _, err := Open(plain.URL + "?retry=0"); err == nil || !strings.Contains(err.Error(), "talign: bad stream") || !strings.Contains(err.Error(), "not 101") {
		t.Errorf("a server answering the upgrade without 101: %v, want a bad-stream error", err)
	}
}

// TestClientRetriesUnavailableAnswer: a first answer "unavailable" (a
// draining server refusing and hanging up) is retried on a new
// connection under retry=, and surfaces with retry=0; a pooled connection
// the server closed while idle is redialed even under retry=0.
func TestClientRetriesUnavailableAnswer(t *testing.T) {
	var queries atomic.Int32
	ts := frameFake(t, func(req wire.Frame) ([]byte, bool) {
		switch n := queries.Add(1); {
		case n == 1 || n == 3:
			return frames(t, nil, fakeUnavailable), false
		case n == 4:
			return frames(t, nil, fakeSchema, fakeRows, wire.Frame{Frame: wire.FrameStatus, RowCount: 2}), false // and hangs up, idle
		}
		return frames(t, nil, fakeSchema, fakeRows, wire.Frame{Frame: wire.FrameStatus, RowCount: 2}), true
	})
	retrying := openTest(t, ts.URL)
	if n := countRows(t, retrying, "SELECT v FROM t"); n != 2 || queries.Load() != 2 {
		t.Fatalf("%d rows after %d requests, want 2 after a retried refusal", n, queries.Load())
	}
	once := openTest(t, ts.URL+"?retry=0")
	var we *wire.Error
	if _, err := once.Query(context.Background(), "SELECT v FROM t"); !errors.As(err, &we) || we.Code != sqlish.ErrUnavailable {
		t.Fatalf("retry=0 against a refusal: %v, want the unavailable error", err)
	}
	countRows(t, once, "SELECT v FROM t") // request 4: answered, then the server hangs up
	if n := countRows(t, once, "SELECT v FROM t"); n != 2 || queries.Load() != 5 {
		t.Fatalf("after the server closed the idle connection: %d rows, %d requests", n, queries.Load())
	}
}

// openTest opens dsn for the length of the test.
func openTest(t *testing.T, dsn string) *DB {
	t.Helper()
	db, err := Open(dsn)
	if err != nil {
		t.Fatalf("Open(%s): %v", dsn, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// bigRemote serves a table whose self-ALIGN runs for seconds. Its gate is
// bounded, so GateStats().InUse counts the statements still running: an
// unlimited gate claims nothing and reads 0 throughout.
func bigRemote(t *testing.T) (*server.Server, *DB) {
	srv := server.New(server.Config{MaxDOP: 4})
	b := relation.NewBuilder("v int")
	for i := 0; i < 3000; i++ {
		b.Row(int64(i%13), int64(i%13)+50, int64(i))
	}
	srv.Catalog().Register("big", b.MustBuild())
	r, p := dataset.Demo()
	srv.Catalog().Register("r", r)
	srv.Catalog().Register("p", p)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, openTest(t, ts.URL+"?batch=64")
}

// metric reads one /metrics line of srv without an HTTP request.
func metric(srv *server.Server, name string) string {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

// TestRemoteEarlyCloseAndCancel: closing a cursor after one batch hangs
// up on the server, which releases the query's gate claim, and the next
// statement on the same DB succeeds; cancelling the context mid-stream
// counts one server-side cancellation.
func TestRemoteEarlyCloseAndCancel(t *testing.T) {
	srv, db := bigRemote(t)
	const align = "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x"
	rows, err := db.Query(context.Background(), align)
	if err != nil || !rows.Next() {
		t.Fatalf("first batch: %v", err)
	}
	rows.Close()
	waitUntil(t, "the gate to drain", func() bool { return srv.GateStats().InUse == 0 })
	if n := countRows(t, db, "SELECT n FROM r"); n != 3 {
		t.Fatalf("the next statement returned %d rows, want 3", n)
	}

	cancels, _ := strconv.Atoi(metric(srv, "talignd_query_cancels_total"))
	ctx, cancel := context.WithCancel(context.Background())
	if rows, err = db.Query(ctx, align); err != nil || !rows.Next() {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	for rows.Next() {
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("cancelled cursor ended with %v", rows.Err())
	}
	waitUntil(t, "one server-side cancel", func() bool {
		return srv.GateStats().InUse == 0 && metric(srv, "talignd_query_cancels_total") == strconv.Itoa(cancels+1)
	})
}

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRemoteConcurrentClients: 8 goroutines × 50 statements share one
// DB's pool and all get their own rows; at most maxIdleConns connections
// stay open afterwards.
func TestRemoteConcurrentClients(t *testing.T) {
	srv, db := bigRemote(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arg, want := int64(40), 4
			if g%2 == 1 {
				arg, want = 30, 5
			}
			for i := 0; i < 50; i++ {
				if n := countRows(t, db, "SELECT a FROM p WHERE a >= $1", arg); n != want {
					t.Errorf("goroutine %d: %d rows, want %d", g, n, want)
				}
			}
		}(g)
	}
	wg.Wait()
	waitUntil(t, "the connections beyond the idle pool to close", func() bool {
		open, _ := strconv.Atoi(metric(srv, "talignd_frame_conns_open"))
		return open <= maxIdleConns
	})
}

// TestRemoteDrain: BeginDrain closes the idle connections, and the next
// statement is refused with the structured "unavailable" error.
func TestRemoteDrain(t *testing.T) {
	srv, db := bigRemote(t)
	countRows(t, db, "SELECT n FROM r")
	srv.BeginDrain()
	waitUntil(t, "idle frame connections to close", func() bool { return metric(srv, "talignd_frame_conns_open") == "0" })
	var we *wire.Error
	if _, err := db.Query(context.Background(), "SELECT n FROM r"); !errors.As(err, &we) || we.Code != sqlish.ErrUnavailable {
		t.Fatalf("a statement on a drained server: %v, want the unavailable error", err)
	}
}
