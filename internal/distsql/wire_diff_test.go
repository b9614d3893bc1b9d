package distsql

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"talign"
	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// edgeRel is the value-edge table: everything NDJSON cannot carry
// natively (NaN, ±Inf, whole floats, periods, ω) beside strings that
// look like the escapes NDJSON uses for them.
func edgeRel() *relation.Relation {
	rel := relation.New(schema.MustNew(
		schema.Attr{Name: "k", Type: value.KindInt},
		schema.Attr{Name: "f", Type: value.KindFloat},
		schema.Attr{Name: "p", Type: value.KindInterval},
		schema.Attr{Name: "s", Type: value.KindString},
	))
	for i, vals := range [][]value.Value{
		{value.NewInt(0), value.NewFloat(math.NaN()), value.NewInterval(interval.New(1, 2)), value.NewString("NaN")},
		{value.NewInt(1), value.NewFloat(math.Inf(1)), value.Null, value.NewString("[1, 2)")},
		{value.NewInt(2), value.NewFloat(math.Inf(-1)), value.NewInterval(interval.New(-5, 9)), value.NewString("+Inf")},
		{value.NewInt(3), value.NewFloat(2), value.NewInterval(interval.New(0, 1)), value.NewString("")},
		{value.NewInt(4), value.Null, value.Null, value.Null},
		{value.NewInt(math.MaxInt64), value.NewFloat(-0.5), value.NewInterval(interval.New(3, 4)), value.NewString("ω")},
	} {
		rel.MustAppend(tuple.Tuple{Vals: vals, T: interval.New(int64(i), int64(i)+4)})
	}
	return rel
}

// wideRel is a table longer than one validity-bitmap word with ω values
// throughout, so a scan's batches are views that share a bitmap reaching
// beyond them.
func wideRel() *relation.Relation {
	rel := relation.New(schema.MustNew(
		schema.Attr{Name: "k", Type: value.KindInt},
		schema.Attr{Name: "s", Type: value.KindString},
	))
	for i := 0; i < 200; i++ {
		k, s := value.NewInt(int64(i)), value.NewString(fmt.Sprint("s", i%9))
		if i%7 == 3 {
			k = value.Null
		}
		if i%5 == 4 {
			s = value.Null
		}
		rel.MustAppend(tuple.Tuple{Vals: []value.Value{k, s}, T: interval.New(int64(i%11), int64(i%11)+3)})
	}
	return rel
}

// canonRows renders rows with their kinds, sorted: two results compare
// equal exactly when every cell agrees in kind and value.
func canonRows(rows [][]value.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Kind().String() + ":" + v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// clientRows drains one statement through the public Go client.
func clientRows(db *talign.DB, q diffQuery) ([][]value.Value, string, error) {
	args := make([]any, len(q.params))
	for i, p := range q.params {
		args[i] = p
	}
	rows, err := db.Query(context.Background(), q.sql, args...)
	if err != nil {
		return nil, "", err
	}
	defer rows.Close()
	var out [][]value.Value
	for rows.Next() {
		out = append(out, slices.Clone(rows.Values())) // Values is valid until the next Next
	}
	return out, rows.Plan(), rows.Err()
}

// ndjsonRows posts one statement to /query/stream without an Accept
// header and decodes the NDJSON answer, steering cells by the schema
// frame's types as any NDJSON client must.
func ndjsonRows(t *testing.T, base string, q diffQuery) ([][]value.Value, string, error) {
	t.Helper()
	params := make([]any, len(q.params))
	for i, p := range q.params {
		params[i] = wire.Cell(p)
	}
	body, _ := json.Marshal(map[string]any{"sql": q.sql, "params": params})
	resp, err := http.Post(base+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out struct {
			Error *wire.Error `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == nil {
			t.Fatalf("%s: unstructured HTTP %d", q.sql, resp.StatusCode)
		}
		return nil, "", out.Error
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.MediaNDJSON {
		t.Fatalf("%s: a request without Accept was answered in %q", q.sql, ct)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var types []string
	var rows [][]value.Value
	var plan string
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("%s: NDJSON stream: %v", q.sql, err)
		}
		switch f.Frame {
		case wire.FrameSchema:
			types = f.Types
		case wire.FramePlan:
			plan = f.Plan
		case wire.FrameRows:
			for _, cells := range f.Rows {
				row := make([]value.Value, len(cells))
				for i, c := range cells {
					if row[i], err = wire.ValueAs(c, types[i]); err != nil {
						t.Fatalf("%s: cell %v: %v", q.sql, c, err)
					}
				}
				rows = append(rows, row)
			}
		case wire.FrameStatus:
			return rows, plan, nil
		case wire.FrameError:
			return nil, "", f.Error
		}
	}
}

// jsonParams reports whether q's parameters keep their kind in a JSON
// request body, which has no whole float, NaN or period: those arrive as
// an int or a string.
func jsonParams(q diffQuery) bool {
	for _, p := range q.params {
		if p.Kind() == value.KindInterval || p.Kind() == value.KindFloat && (p.Float() == math.Trunc(p.Float()) || math.IsNaN(p.Float())) {
			return false
		}
	}
	return true
}

func openClient(t *testing.T, dsn string) *talign.DB {
	t.Helper()
	db, err := talign.Open(dsn)
	if err != nil {
		t.Fatalf("Open(%s): %v", dsn, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// wireDiffQueries is the distributed differential's corpus plus the
// value-edge shapes.
func wireDiffQueries() []diffQuery {
	return append(append([]diffQuery(nil), distDiffQueries...),
		diffQuery{sql: "SELECT k, f, p, s, Ts, Te FROM e"},
		diffQuery{sql: "SELECT f, s FROM e WHERE k >= 1"},
		diffQuery{sql: "SELECT k, f, p, s FROM e ORDER BY k"},
		diffQuery{sql: "SELECT k, f, p, s, Ts, Te FROM (e ALIGN r ON e.k = r.a) x"},
		diffQuery{sql: "SELECT k, s FROM w"},
		diffQuery{sql: "SELECT k, s, Ts, Te FROM w WHERE k >= 100"},
		diffQuery{sql: "SELECT s, COUNT(*) c FROM w GROUP BY s"},
	)
}

// TestThreeWayWireDifferential: every statement yields identical rows —
// values and kinds — from the embedded engine, from raw NDJSON without
// an Accept header, and from the Go client on batch frames, against a
// single node and through a 2-worker coordinator.
func TestThreeWayWireDifferential(t *testing.T) {
	rels := testRels(1)
	rels["e"] = edgeRel()
	rels["w"] = wideRel()

	embedded := openClient(t, "talign://mem")
	for name, rel := range rels {
		if err := embedded.Register(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	single := httptest.NewServer(singleNode(t, rels).Handler())
	t.Cleanup(single.Close)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)
	coord := httptest.NewServer(cl.csrv.Handler())
	t.Cleanup(coord.Close)

	// batch=2 cuts every scan into views of the tables' columnar images,
	// ω rows inside and outside each view.
	for _, node := range []struct{ name, url, opts string }{
		{"single node", single.URL, ""}, {"coordinator", coord.URL, ""},
		{"single node, batch=2", single.URL, "?batch=2"}, {"coordinator, batch=2", coord.URL, "?batch=2"},
	} {
		db := openClient(t, node.url+node.opts)
		for _, q := range wireDiffQueries() {
			want, _, werr := clientRows(embedded, q)
			overNDJSON, nerr := want, werr
			if jsonParams(q) {
				overNDJSON, _, nerr = ndjsonRows(t, node.url, q)
			}
			overFrames, _, ferr := clientRows(db, q)
			if (werr == nil) != (nerr == nil) || (werr == nil) != (ferr == nil) {
				t.Fatalf("%s: error parity diverged on %q: embedded=%v ndjson=%v frames=%v", node.name, q.sql, werr, nerr, ferr)
			}
			if werr != nil {
				continue
			}
			w := canonRows(want)
			for enc, got := range map[string][]string{"NDJSON": canonRows(overNDJSON), "batch frames": canonRows(overFrames)} {
				if strings.Join(got, "\n") != strings.Join(w, "\n") {
					t.Fatalf("%s over %s diverged from embedded on %q:\n%s\nvs embedded\n%s", node.name, enc, q.sql, strings.Join(got, "\n"), strings.Join(w, "\n"))
				}
			}
		}
	}
	if cl.coord.scatters.Load() == 0 || cl.coord.repartitions.Load() == 0 || cl.coord.partialAggs.Load() == 0 {
		t.Fatal("the corpus did not reach the scatter, repartition and partial-aggregate paths")
	}
}

// TestPlanFramesBothFormats: the statements answered by a plan frame —
// EXPLAIN, EXPLAIN ANALYZE, ANALYZE, CREATE, DROP — read the same over
// NDJSON and over batch frames.
func TestPlanFramesBothFormats(t *testing.T) {
	rels := testRels(2)
	ts := httptest.NewServer(singleNode(t, rels).Handler())
	t.Cleanup(ts.Close)
	db := openClient(t, ts.URL)

	csv := filepath.Join(t.TempDir(), "c.csv")
	if err := os.WriteFile(csv, []byte("a:int,ts,te\n1,0,5\n2,3,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Each statement runs once per format; CREATE and DROP alternate so
	// both formats see both.
	for _, sql := range []string{
		"EXPLAIN SELECT a, b FROM r WHERE a >= 1",
		"EXPLAIN ANALYZE SELECT a, COUNT(*) c FROM r GROUP BY a",
		"ANALYZE r",
	} {
		_, viaNDJSON, err := ndjsonRows(t, ts.URL, diffQuery{sql: sql})
		if err != nil {
			t.Fatalf("%s over NDJSON: %v", sql, err)
		}
		_, viaFrames, err := clientRows(db, diffQuery{sql: sql})
		if err != nil {
			t.Fatalf("%s over batch frames: %v", sql, err)
		}
		if viaNDJSON == "" || viaNDJSON != viaFrames {
			t.Fatalf("%s: plan over NDJSON\n%s\nvs over batch frames\n%s", sql, viaNDJSON, viaFrames)
		}
	}
	create := diffQuery{sql: fmt.Sprintf("CREATE TABLE c FROM CSV '%s'", csv)}
	drop := diffQuery{sql: "DROP TABLE c"}
	_, c1, err := ndjsonRows(t, ts.URL, create)
	if err != nil {
		t.Fatal(err)
	}
	_, d1, err := clientRows(db, drop)
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := clientRows(db, create)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := ndjsonRows(t, ts.URL, drop)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != "CREATE TABLE c: 2 rows, 1 columns" || c1 != c2 || d1 != "DROP TABLE c" || d1 != d2 {
		t.Fatalf("CREATE/DROP acks diverged: %q / %q, %q / %q", c1, c2, d1, d2)
	}
}

// TestMidStreamErrorBothFormats: an error after rows were flushed
// arrives as the same structured error frame on both formats.
func TestMidStreamErrorBothFormats(t *testing.T) {
	rels := testRels(0)
	srv := singleNode(t, rels)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	db := openClient(t, ts.URL+"?batch=2&retry=0")
	t.Cleanup(faultinject.Reset)
	q := diffQuery{sql: "SELECT a, b, Ts, Te FROM r"}

	var errs []*wire.Error
	for _, run := range []func() error{
		func() error { _, _, err := ndjsonRows(t, ts.URL, diffQuery{sql: q.sql}); return err },
		func() error { _, _, err := clientRows(db, q); return err },
	} {
		faultinject.Arm("server.stream.rows", faultinject.Fault{Kind: faultinject.KindError, After: 1})
		err := run()
		faultinject.Reset()
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Fatalf("mid-stream fault surfaced as %v, want a structured wire error", err)
		}
		errs = append(errs, we)
	}
	if *errs[0] != *errs[1] {
		t.Fatalf("error frame over NDJSON %+v, over batch frames %+v", errs[0], errs[1])
	}
}

// TestClientCancelBothFormats: hanging up mid-stream aborts the query
// server-side on either transport — NDJSON over /query/stream (asking for
// batch frames there changes nothing) and a frame connection.
func TestClientCancelBothFormats(t *testing.T) {
	b := relation.NewBuilder("v int")
	for i := 0; i < 3000; i++ {
		b.Row(int64(i%13), int64(i%13)+50, int64(i))
	}
	srv := singleNode(t, map[string]*relation.Relation{"big": b.MustBuild()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const sql = "SELECT v, Ts, Te FROM (big a ALIGN big b ON true) x"

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query/stream", strings.NewReader(`{"sql": "`+sql+`", "batch": 64}`))
	req.Header.Set("Accept", wire.MediaBatch)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.MediaNDJSON {
		t.Fatalf("/query/stream answered in %q, want %q", ct, wire.MediaNDJSON)
	}
	dec := json.NewDecoder(resp.Body)
	for seen := 0; seen < 2; seen++ { // the schema frame and one rows frame
		if err := dec.Decode(&wire.Frame{}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.GateStats().InUse == 0 {
		t.Fatal("NDJSON: the query finished before it could be cancelled")
	}
	cancel()
	resp.Body.Close()
	waitFor(t, 10*time.Second, "server-side abort", func() bool { return srv.GateStats().InUse == 0 })

	ctx, cancel = context.WithCancel(context.Background())
	rows, err := openClient(t, ts.URL+"?batch=64").Query(ctx, sql)
	if err != nil || !rows.Next() {
		t.Fatalf("frame connection: %v", err)
	}
	if srv.GateStats().InUse == 0 {
		t.Fatal("frame connection: the query finished before it could be cancelled")
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("frame connection: cancelled cursor ended with %v", err)
	}
	waitFor(t, 10*time.Second, "server-side abort", func() bool { return srv.GateStats().InUse == 0 })
}

// TestStreamedScatterBuildsNoTuples pins the merge path: shard batches
// cross the coordinator — worker stream to client frame — without a row
// being built, so merging costs nothing per batch, let alone per row.
func TestStreamedScatterBuildsNoTuples(t *testing.T) {
	const batches, rows = 64, 512
	shard := colbatch.New(schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindInt}))
	for i := 0; i < rows; i++ {
		shard.AppendTuple(tuple.Tuple{Vals: []value.Value{value.NewInt(int64(i)), value.NewInt(int64(-i))}, T: interval.New(int64(i), int64(i)+2)})
	}
	fw := wire.NewWriter(io.Discard, wire.MediaBatch)
	allocs := testing.AllocsPerRun(5, func() {
		streams := make([]*workerStream, 2)
		for i := range streams {
			streams[i] = &workerStream{ch: make(chan *colbatch.Batch, batches)}
			for j := 0; j < batches; j++ {
				streams[i].ch <- shard
			}
			close(streams[i].ch)
		}
		merge := &mergeSource{streams: streams}
		n := 0
		for {
			b, err := merge.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if err := fw.Write(wire.Frame{Frame: wire.FrameRows, Batch: b}); err != nil {
				t.Fatal(err)
			}
			n += b.Len()
		}
		if n != 2*batches*rows {
			t.Fatalf("merged %d rows, want %d", n, 2*batches*rows)
		}
	})
	// The run's own set-up (two streams, two channels, the merge) is a
	// handful of allocations; a row form would add at least one per batch.
	if allocs > 16 {
		t.Fatalf("merging and re-framing %d batches of %d rows allocates %.0f times; batches must pass through as they are", 2*batches, rows, allocs)
	}
}
