package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"talign/internal/exec"
	"talign/internal/plan"
	"talign/internal/raceflag"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/value"
	"talign/internal/wire"
)

// postStream sends a query to /query/stream and decodes every NDJSON
// frame.
func postStream(t *testing.T, ts *httptest.Server, body string) (int, []wire.Frame) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /query/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var frames []wire.Frame
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			break
		}
		frames = append(frames, f)
	}
	return resp.StatusCode, frames
}

// TestStreamProtocol checks the frame sequence of a row-producing
// statement: schema, rows, trailing status with the exact row count.
func TestStreamProtocol(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, frames := postStream(t, ts, `{"sql": "SELECT a FROM p WHERE a >= 40 ORDER BY a"}`)
	if code != http.StatusOK || len(frames) < 3 {
		t.Fatalf("status %d, %d frames", code, len(frames))
	}
	if frames[0].Frame != wire.FrameSchema {
		t.Fatalf("first frame = %q", frames[0].Frame)
	}
	if got := frames[0].Columns; len(got) != 3 || got[0] != "a" || got[1] != "ts" || got[2] != "te" {
		t.Fatalf("schema columns = %v", got)
	}
	last := frames[len(frames)-1]
	if last.Frame != wire.FrameStatus || last.RowCount != 4 {
		t.Fatalf("last frame = %+v", last)
	}
	var rows int
	for _, f := range frames[1 : len(frames)-1] {
		if f.Frame != wire.FrameRows {
			t.Fatalf("mid frame = %q", f.Frame)
		}
		rows += len(f.Rows)
	}
	if rows != 4 {
		t.Fatalf("streamed %d rows, want 4", rows)
	}

	// EXPLAIN streams a plan frame then a status frame.
	_, frames = postStream(t, ts, `{"sql": "EXPLAIN SELECT a FROM p"}`)
	if len(frames) != 2 || frames[0].Frame != wire.FramePlan || !strings.Contains(frames[0].Plan, "SeqScan p") {
		t.Fatalf("EXPLAIN frames = %+v", frames)
	}

	// Errors before any row travel as a structured HTTP error.
	code, _ = postStream(t, ts, `{"sql": "SELECT nope FROM nowhere"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad query status = %d", code)
	}
}

// diffQueries are the ≥10 statement shapes of the acceptance criterion:
// the streamed result must be byte-equal to the buffered result for
// every one of them.
var diffQueries = []struct {
	sql    string
	params string
}{
	{"SELECT a, mn, mx FROM p ORDER BY a, mn", ""},
	{"SELECT n FROM r WHERE n = $1", `["Ann"]`},
	{"SELECT DISTINCT n FROM r ORDER BY n", ""},
	{"SELECT ABSORB n FROM r", ""},
	{"SELECT n, a FROM r, p WHERE a >= $1 ORDER BY n, a LIMIT 7", `[40]`},
	{"SELECT n, a FROM r JOIN p ON a >= 30 ORDER BY n, a DESC OFFSET 2", ""},
	{"SELECT r.n, x.n2 FROM r LEFT OUTER JOIN (SELECT n n2, Ts, Te FROM r WHERE n = 'Joe') x ON r.n = x.n2 ORDER BY r.n", ""},
	{"SELECT n, Ts, Te FROM (r a NORMALIZE r b USING (n)) x ORDER BY n, Ts", ""},
	{"WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r) SELECT n, Us, Ue, x.Ts, x.Te FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx) x ORDER BY n, Us, Ts", ""},
	{"SELECT n, COUNT(*) c, Ts, Te FROM (r a NORMALIZE r b USING ()) x GROUP BY n, Ts, Te ORDER BY n, Ts", ""},
	{"SELECT n FROM r UNION SELECT n FROM r ORDER BY n", ""},
	{"SELECT a + mn AS s, a * 2 AS d FROM p WHERE a BETWEEN $1 AND $2 ORDER BY s, d", `[30, 50]`},
	{"SELECT v FROM nums ORDER BY v LIMIT 100 OFFSET 450", ""},
}

// TestStreamedEqualsBuffered is the differential acceptance test: for
// every query shape, the rows coming off the NDJSON stream must be
// byte-identical (as canonical JSON) to the rows of the buffered
// /query response, and the row counts must agree.
func TestStreamedEqualsBuffered(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	// A larger relation so results span several executor batches (the
	// stream emits one rows frame per batch).
	b := relation.NewBuilder("v int")
	for i := 0; i < 5000; i++ {
		b.Row(int64(i%97), int64(i%97)+40, int64(i))
	}
	s.Catalog().Register("nums", b.MustBuild())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, q := range diffQueries {
		body := fmt.Sprintf(`{"sql": %q}`, q.sql)
		if q.params != "" {
			body = fmt.Sprintf(`{"sql": %q, "params": %s}`, q.sql, q.params)
		}
		code, buffered := post(t, ts, "/query", body)
		if code != http.StatusOK {
			t.Fatalf("%s: buffered status %d: %v", q.sql, code, buffered)
		}
		code, frames := postStream(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("%s: streamed status %d", q.sql, code)
		}
		var streamedRows []any
		var status *wire.Frame
		for i := range frames {
			switch frames[i].Frame {
			case wire.FrameRows:
				for _, r := range frames[i].Rows {
					streamedRows = append(streamedRows, r)
				}
			case wire.FrameStatus:
				status = &frames[i]
			case wire.FrameError:
				t.Fatalf("%s: error frame: %v", q.sql, frames[i].Error)
			}
		}
		if status == nil {
			t.Fatalf("%s: stream ended without a status frame", q.sql)
		}
		wantCount := int64(buffered["row_count"].(float64))
		if status.RowCount != wantCount || int64(len(streamedRows)) != wantCount {
			t.Fatalf("%s: streamed %d rows (status %d), buffered %d", q.sql, len(streamedRows), status.RowCount, wantCount)
		}
		bufRows, ok := buffered["rows"].([]any)
		if !ok {
			bufRows = nil
		}
		want, err := json.Marshal(bufRows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(streamedRows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(normalizeJSON(t, got), normalizeJSON(t, want)) {
			t.Fatalf("%s: streamed rows differ from buffered rows\nstreamed: %.200s\nbuffered: %.200s", q.sql, got, want)
		}
	}
}

// normalizeJSON round-trips through any to erase json.Number vs float64
// representation differences between the two decode paths.
func normalizeJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return out
}

// bigAlignServer registers a relation large enough that the self-ALIGN
// below runs for a long time (seconds).
func bigAlignServer(t *testing.T, n int) (*Server, string) {
	t.Helper()
	s := New(Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
	b := relation.NewBuilder("v int")
	for i := 0; i < n; i++ {
		b.Row(int64(i%13), int64(i%13)+50, int64(i))
	}
	s.Catalog().Register("big", b.MustBuild())
	// Every tuple overlaps nearly every other: group construction feeds
	// the plane sweep ~n² pairs.
	return s, "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x"
}

// TestCancelMidAlign is the cancellation acceptance test (run with
// -race): cancelling a context mid-ALIGN on a large relation must return
// promptly with context.Canceled, leak no goroutines, release the
// admission gate, and be visible in the operator instrumentation
// counters.
func TestCancelMidAlign(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, sql := bigAlignServer(t, 4000)

	before := exec.CancelObserved()
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := s.StreamBatch(ctx, "", "", sql, nil, 0)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	// Pull one batch so the pipeline is demonstrably mid-flight, then
	// cancel and require a prompt cooperative abort.
	if _, err := rs.Next(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	start := time.Now()
	var nerr error
	for {
		_, nerr = rs.Next()
		if nerr != nil {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("cancelled query kept producing batches for 10s")
		}
	}
	if !errors.Is(nerr, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", nerr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	rs.Close()

	// Operator instrumentation saw the abort.
	if after := exec.CancelObserved(); after <= before {
		t.Fatalf("exec.CancelObserved() = %d, want > %d", after, before)
	}
	// Gate slots released.
	waitFor(t, 5*time.Second, "gate drain", func() bool {
		return s.gate.Stats().InUse == 0
	})
	// No goroutine leaks: drain helpers must all exit.
	waitFor(t, 10*time.Second, "goroutine drain", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
	// Cancellation is counted.
	if s.cancels.Load() == 0 {
		t.Fatal("server cancel counter did not move")
	}
}

// TestCancelOnClientDisconnect: dropping the HTTP connection mid-stream
// aborts the query server-side. Either the cancelled request context
// reaches the pipeline's guard at the next pull or a write to the closed
// connection fails first (RowStream.hangUp); both end the stream as one
// counted cancellation and release its gate unit.
func TestCancelOnClientDisconnect(t *testing.T) {
	s, sql := bigAlignServer(t, 4000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query/stream", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"sql": %q}`, sql))))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	// Read a little, then hang up without draining.
	buf := make([]byte, 1024)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	resp.Body.Close()

	waitFor(t, 10*time.Second, "server-side abort", func() bool {
		return s.cancels.Load() == 1 && s.gate.Stats().InUse == 0
	})
}

// TestGateAcquireCtx: a waiter cancelled while queued leaves the line
// with nothing claimed.
func TestGateAcquireCtx(t *testing.T) {
	g := NewGate(2)
	for i := 0; i < 2; i++ {
		if err := g.AcquireCtx(context.Background()); err != nil {
			t.Fatalf("AcquireCtx #%d: %v", i, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.AcquireCtx(ctx) }()
	waitFor(t, 5*time.Second, "waiter queued", func() bool {
		return g.Stats().Waiting == 1
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AcquireCtx = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	if st := g.Stats(); st.Waiting != 0 || st.InUse != 2 {
		t.Fatalf("gate after cancelled wait: %+v", st)
	}
	g.Release()
	g.Release()
	if st := g.Stats(); st.InUse != 0 {
		t.Fatalf("gate after release: %+v", st)
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text with the cache,
// gate and cancellation counters.
func TestMetricsEndpoint(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags(), MaxDOP: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, out := post(t, ts, "/query", `{"sql": "SELECT n FROM r"}`); out["row_count"] == nil {
		t.Fatalf("warmup query failed: %v", out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"talignd_queries_total 1",
		"talignd_plan_cache_misses_total 1",
		"# TYPE talignd_plan_cache_hits_total counter",
		"talignd_gate_capacity 8",
		"talignd_gate_in_flight_dop 0",
		"talignd_query_cancels_total",
		"talignd_exec_cancel_observed_total",
		"talignd_plan_cache_capacity",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("timed out waiting for %s\n%s", what, buf[:n])
}

// dialFrames opens a frame connection to ts: the upgrade, then a writer
// and a decoder over the connection.
func dialFrames(t *testing.T, ts *httptest.Server) (net.Conn, *wire.Writer, *wire.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /frames HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", wire.FrameProtocol)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	return conn, wire.NewWriter(conn, wire.MediaBatch), wire.NewDecoder(br)
}

// TestStreamEncodeErrorEndsWithErrorFrame: a frame the batch-frame format
// cannot carry — here a column alias longer than its u16 length field —
// ends the answer with an error frame naming the cause, where a peer
// used to see a bare truncation; the frame connection then serves the
// next statement.
func TestStreamEncodeErrorEndsWithErrorFrame(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, fw, dec := dialFrames(t, ts)
	fw.Write(wire.Frame{Frame: wire.FrameQuery, SQL: "SELECT a AS " + strings.Repeat("x", 70000) + " FROM p"})
	f, err := dec.Next()
	if err != nil || f.Frame != wire.FrameError || !strings.Contains(f.Error.Message, "name length of 70000 exceeds 65535") {
		t.Fatalf("first frame = %+v, %v; want an error frame naming the over-long name", f, err)
	}
	fw.Write(wire.Frame{Frame: wire.FrameQuery, SQL: "SELECT a FROM p WHERE a >= $1", Params: []value.Value{value.NewInt(40)}})
	for f.Frame != wire.FrameStatus {
		if f, err = dec.Next(); err != nil || f.Frame == wire.FrameError {
			t.Fatalf("the next statement: %+v, %v", f, err)
		}
	}
	if f.RowCount != 4 {
		t.Fatalf("the next statement returned %d rows, want 4", f.RowCount)
	}
}

// TestFrameConnLifecycle: GET /frames without the Upgrade header is a
// 400; a connection counts in /metrics while open; BeginDrain closes an
// idle one, and a draining server refuses the upgrade with the structured
// 503.
func TestFrameConnLifecycle(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/frames"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /frames without Upgrade: %v, %v", resp, err)
	}
	conn, _, dec := dialFrames(t, ts)
	metric := func() string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	if m := metric(); !strings.Contains(m, "talignd_frame_conns_open 1") || !strings.Contains(m, "talignd_frame_conns_total 1") {
		t.Fatalf("metrics do not count the open frame connection")
	}
	s.BeginDrain()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("an idle connection after BeginDrain read %v, want io.EOF", err)
	}
	waitFor(t, 5*time.Second, "the connection to close", func() bool { return strings.Contains(metric(), "talignd_frame_conns_open 0") })
	req, _ := http.NewRequest("GET", ts.URL+"/frames", nil)
	req.Header.Set("Upgrade", wire.FrameProtocol)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upgrade while draining: %v, %v", resp, err)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"unavailable"`) {
		t.Fatalf("upgrade while draining answered %s", body)
	}
}

// TestWorkerFramesRefused: a server that is no coordinator's worker — a
// plain talignd or a coordinator — answers a stage, unstage or analyze
// frame, or a query frame with a cut or a substitution, with a "request"
// error, a stage frame's relation read and
// dropped as it arrives, and the connection goes on serving queries.
func TestWorkerFramesRefused(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	conn, fw, dec := dialFrames(t, ts)
	shard := relation.NewBuilder("v int").Row(0, 5, int64(1)).Row(3, 9, int64(2)).MustBuild().Columnar()
	for _, req := range [][]wire.Frame{
		{{Frame: wire.FrameStage, Table: "c"}, {Frame: wire.FrameSchema, Columns: []string{"v", "ts", "te"}, Types: []string{"int", "int", "int"}},
			{Frame: wire.FrameRows, Batch: shard}, {Frame: wire.FrameStatus, RowCount: 2}},
		{{Frame: wire.FrameUnstage, Table: "p"}},
		{{Frame: wire.FrameAnalyze}},
		{{Frame: wire.FrameQuery, SQL: "SELECT a FROM p", Cut: sqlish.CutBody}},
		{{Frame: wire.FrameQuery, SQL: "SELECT a FROM p", Subst: map[string]string{"p": "r"}}},
	} {
		for _, f := range req {
			if err := fw.Write(f); err != nil {
				t.Fatal(err)
			}
		}
		if f, err := dec.Next(); err != nil || f.Frame != wire.FrameError || f.Error.Code != "request" {
			t.Fatalf("%s frame on a server that is no worker: %+v, %v; want a request error", req[0].Frame, f, err)
		}
	}
	snap := s.Catalog().Snapshot()
	if _, staged := snap.Lookup("c"); staged {
		t.Fatal("a refused stage registered its relation")
	}
	if _, kept := snap.Lookup("p"); !kept {
		t.Fatal("a refused unstage dropped its table")
	}
	fw.Write(wire.Frame{Frame: wire.FrameQuery, SQL: "SELECT a FROM p WHERE a >= 40"})
	f, err := dec.Next()
	for ; err == nil && f.Frame != wire.FrameStatus && f.Frame != wire.FrameError; f, err = dec.Next() {
	}
	if err != nil || f.Frame != wire.FrameStatus || f.RowCount != 4 {
		t.Fatalf("the query after the refusals: %+v, %v; want 4 rows", f, err)
	}

	// A refused stage of many rows frames is read through the connection's
	// one reused buffer: its frames do not pile up until the status frame.
	b := relation.NewBuilder("v int")
	for i := int64(0); i < 4096; i++ {
		b.Row(i, i+1, i)
	}
	big := b.MustBuild().Columnar()
	const nframes = 32
	var body bytes.Buffer
	bw := wire.NewWriter(&body, wire.MediaBatch)
	bw.Write(wire.Frame{Frame: wire.FrameStage, Table: "c"})
	bw.Write(wire.Frame{Frame: wire.FrameSchema, Columns: []string{"v", "ts", "te"}, Types: []string{"int", "int", "int"}})
	for i := 0; i < nframes; i++ {
		bw.Write(wire.Frame{Frame: wire.FrameRows, Batch: big})
	}
	bw.Write(wire.Frame{Frame: wire.FrameStatus, RowCount: nframes * int64(big.Len())})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(body.Bytes()); err != nil {
		t.Fatal(err)
	}
	f, err = dec.Next()
	runtime.ReadMemStats(&after)
	if err != nil || f.Frame != wire.FrameError || f.Error.Code != "request" {
		t.Fatalf("a stage of %d rows frames: %+v, %v; want a request error", nframes, f, err)
	}
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("refusing a stage of %d frame bytes allocated %d bytes", body.Len(), grown)
	if grown > uint64(body.Len()/4) && !raceflag.Enabled {
		t.Errorf("refusing a stage of %d frame bytes allocated %d bytes, want at most a quarter of them", body.Len(), grown)
	}
}

// failAfter accepts its first n writes and fails every later one, like a
// connection whose peer hung up mid-answer.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, io.ErrClosedPipe
	}
	w.n--
	return len(p), nil
}

// TestFailedFrameWriteCountsOneCancel: a frame write that fails while the
// stream still runs ends it as exactly one client cancellation (and one
// error) and releases its gate claim; a write that fails after the last
// row was pulled — only the status frame is lost — counts nothing.
func TestFailedFrameWriteCountsOneCancel(t *testing.T) {
	// A bounded gate, so InUse counts the stream's claim.
	s := demoServer(t, Config{Flags: plan.DefaultFlags(), MaxDOP: 4})
	cases := []struct {
		name   string
		writes int // frames written before the transport fails
		want   uint64
	}{
		{"rows frame", 1, 1},   // schema written, rows lost
		{"status frame", 2, 0}, // schema and rows written, status lost
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cancels, errs := s.cancels.Load(), s.errors.Load()
			rs, err := s.StreamBatch(context.Background(), "", "", "SELECT a FROM p WHERE a >= 40", nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			writeFrames(wire.NewWriter(&failAfter{n: c.writes}, wire.MediaBatch), rs, true, nil)
			rs.Close()
			if got := s.cancels.Load() - cancels; got != c.want {
				t.Errorf("cancellations counted: %d, want %d", got, c.want)
			}
			if got := s.errors.Load() - errs; got != c.want {
				t.Errorf("errors counted: %d, want %d", got, c.want)
			}
			if inUse := s.gate.Stats().InUse; inUse != 0 {
				t.Errorf("gate in use after the stream: %d", inUse)
			}
		})
	}
}
