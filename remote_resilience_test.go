package talign

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/dataset"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// flaky503 wraps a real talignd handler and fails the first n requests
// per path with 503, the way a draining replica behind a load balancer
// would.
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
// with backoff: an Open plus a query against a server that refuses the
// first two requests must still succeed.
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
	rows, err := db.Query(context.Background(), "SELECT n FROM r")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n == 0 {
		t.Fatalf("rows: %d, err %v", n, err)
	}
	rows.Close()
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
	b := relation.NewBuilder("v int")
	for i := 0; i < 3000; i++ {
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
	// The deadline can surface client-side (context error on the
	// connection) or server-side (structured "timeout" frame), depending
	// on who notices first; both are correct.
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

// TestClientRejectsMalformedStreams: an error frame without its error
// object (which used to reach the caller as a typed-nil error whose
// Error() panics), a status frame that disagrees with the rows received,
// and an answer in any media type but the batch frames the client asked
// for are the client's structured "bad stream" error, whether the defect
// is the first frame or arrives after rows were handed out.
func TestClientRejectsMalformedStreams(t *testing.T) {
	var answer atomic.Pointer[struct {
		media string
		body  []byte
	}]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query/stream" {
			w.Write([]byte(`{"ok":true}`)) // healthz
			return
		}
		if got := r.Header.Get("Accept"); got != wire.MediaBatch {
			t.Errorf("the Go client asked for %q, want %q", got, wire.MediaBatch)
		}
		a := answer.Load()
		w.Header().Set("Content-Type", a.media)
		w.Write(a.body)
	}))
	t.Cleanup(ts.Close)
	db, err := Open(ts.URL + "?retry=0")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })

	batch := colbatch.New(schema.MustNew(schema.Attr{Name: "v", Type: value.KindInt}))
	for i := int64(0); i < 2; i++ {
		batch.AppendTuple(tuple.Tuple{Vals: []value.Value{value.NewInt(i)}, T: interval.New(i, i+1)})
	}
	stream := func(raw []byte, frames ...wire.Frame) []byte {
		var buf bytes.Buffer
		fw := wire.NewWriter(&buf, wire.MediaBatch)
		for _, f := range frames {
			if err := fw.Write(f); err != nil {
				t.Fatal(err)
			}
		}
		return append(buf.Bytes(), raw...)
	}
	sch := wire.Frame{Frame: wire.FrameSchema, Columns: []string{"v", "ts", "te"}, Types: []string{"int", "int", "int"}}
	rows := wire.Frame{Frame: wire.FrameRows, Batch: batch}
	bodyless := rawFrame(5, nil)
	ndjson := []byte(`{"frame":"schema","columns":["v","ts","te"],"types":["int","int","int"]}` + "\n" + `{"frame":"status","row_count":0}` + "\n")
	for _, tc := range []struct {
		name     string
		media    string
		body     []byte
		wantRows int // rows handed out before the error
		want     string
	}{
		{"body-less error frame first", wire.MediaBatch, bodyless, -1, "error frame"},
		{"body-less error frame after rows", wire.MediaBatch, stream(bodyless, sch, rows), 2, "error frame"},
		{"status frame counts a row too many", wire.MediaBatch, stream(nil, sch, rows, wire.Frame{Frame: wire.FrameStatus, RowCount: 3}), 2, "status frame reports 3 rows, the stream carried 2"},
		{"dropped rows frame", wire.MediaBatch, stream(nil, sch, wire.Frame{Frame: wire.FrameStatus, RowCount: 2}), 0, "status frame reports 2 rows, the stream carried 0"},
		{"NDJSON answer to a batch-frame request", wire.MediaNDJSON, ndjson, -1, wire.MediaNDJSON},
	} {
		answer.Store(&struct {
			media string
			body  []byte
		}{tc.media, tc.body})
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
}
