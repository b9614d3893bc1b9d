package talign

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/distsql"
	"talign/internal/plan"
	"talign/internal/raceflag"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/storage"
	"talign/internal/value"
)

// allocPinDB opens talign://mem over the relations of the benchmark's
// embedded workload at its size: two Incumben relations of n rows and the
// D_rand pair of n/4 (its price-band columns renamed, min and max being
// reserved words).
func allocPinDB(t *testing.T, n int) (*DB, *relation.Relation) {
	t.Helper()
	a := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
	dr, ds0 := dataset.Drand(n/4, 1)
	rels := map[string]*relation.Relation{
		"a":  a,
		"b":  dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 2}),
		"dr": dr,
		"ds": {
			Schema: schema.MustNew(
				schema.Attr{Name: "a", Type: value.KindInt},
				schema.Attr{Name: "lo", Type: value.KindInt},
				schema.Attr{Name: "hi", Type: value.KindInt}),
			Tuples: ds0.Tuples,
		},
	}
	db, err := Open("talign://mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for name, rel := range rels {
		if err := db.Register(name, rel); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	return db, a
}

// bytesPerRun reports the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// drainCount drains one statement through the public client, touching
// nothing but Next: what it allocates is the path's, not a reader's.
func drainCount(t *testing.T, db *DB, name, sql string) int {
	t.Helper()
	rs, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer rs.Close()
	rows := 0
	for rs.Next() {
		rows++
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rows
}

// TestEmbeddedAllocsPerRow pins what the columnar join, aggregate and
// absorb and the in-place embedded Rows bought: draining a statement
// through the public client costs well under one malloc per result row,
// and the cursor itself costs no bytes per row — it reads the executor's
// batch where it lies, so the plain scan, which has no operator state,
// allocates a few bytes a row in all. The texts are the benchmark's (its
// embedded workload's operator shapes, plus the plain scan); what remains
// per execution is operator state and per-batch buffers. Before, every
// batch was copied into a value arena at the client: 192 B per 4-column
// row (scan_a read 197.5 B/row, align_ssn 291, filtered_join 276). The
// group sides of align_ssn, normalize_ssn and temporal_agg are projected
// scans whose image the fused operator reads in place; while it was
// copied, and NORMALIZE built a split-point union, they read 98, 314 and
// 577 B/row. temporal_agg is one endpoint sweep over a's image and its
// shared group index; while it hash-aggregated the pieces of a NORMALIZE,
// it read 327 B/row.
func TestEmbeddedAllocsPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 8 000-row relations")
	}
	db, a := allocPinDB(t, 8000)
	var maxSSN int64
	for _, tup := range a.Tuples {
		maxSSN = max(maxSSN, tup.Vals[0].Int())
	}
	stmts := []struct {
		name, sql string
		maxBytes  float64 // per row; 0 = not pinned
	}{
		{"scan_a", "SELECT ssn, pcn, Ts, Te FROM a", 16},
		{"align_ssn", "SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x", 68},    // 1.25 × the 54 it reads
		{"normalize_ssn", "SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x", 85}, // 1.25 × 68
		{"outer_join", "SELECT ABSORB rid, rgrp, a, lo, x.Ts, x.Te " +
			"FROM (dr ALIGN ds ON dr.rgrp = ds.lo) x " +
			"LEFT OUTER JOIN (ds ALIGN dr ON dr.rgrp = ds.lo) y " +
			"ON x.rgrp = y.lo AND x.Ts = y.Ts AND x.Te = y.Te", 949}, // 1.25 × 759
		{"temporal_agg", "SELECT pcn, COUNT(*) c, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te", 5},                         // 1.25 × 3.7
		{"filtered_join", fmt.Sprintf("SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= %d AND a.pcn >= 0", maxSSN/10), 104}, // 1.25 × 83
	}
	for _, st := range stmts {
		rows := 0
		drain := func() { rows = drainCount(t, db, st.name, st.sql) }
		drain() // plan cache, columnar images
		runtime.GC()
		allocs := testing.AllocsPerRun(3, drain)
		bytes := bytesPerRun(3, drain)
		t.Logf("%-14s %6d rows  %7.0f mallocs  %.3f allocs/row  %6.1f B/row", st.name, rows, allocs, allocs/float64(rows), bytes/float64(rows))
		if rows < 1000 {
			t.Errorf("%s: %d rows is not a meaningful result", st.name, rows)
		}
		if allocs > 0.5*float64(rows) {
			t.Errorf("%s: %.0f mallocs for %d rows, want at most 0.5 per row", st.name, allocs, rows)
		}
		if st.maxBytes > 0 && bytes > st.maxBytes*float64(rows) && !raceflag.Enabled {
			t.Errorf("%s: %.1f B per row, want at most %.0f", st.name, bytes/float64(rows), st.maxBytes)
		}
	}
}

// TestBatchBornAlignBytesPerRow pins the segment workload's time_align
// shape: the top decile of a aligned with all of a 64 000-row b that
// arrived as batches. b's image reaches the fused operator through a
// projection and a guard, and is read where it lies; copying it every
// execution read 1 242 B per result row.
func TestBatchBornAlignBytesPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 64 000-row relations")
	}
	const n = 64000
	db, err := Open("talign://mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	a := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
	b := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 2})
	for name, rel := range map[string]*relation.Relation{"a": a, "b": b} {
		if err := db.Register(name, relation.FromColumnar(rel.Columnar())); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	minTS, maxTS := a.Tuples[0].T.Ts, a.Tuples[0].T.Ts
	for _, tup := range a.Tuples {
		minTS, maxTS = min(minTS, tup.T.Ts), max(maxTS, tup.T.Ts)
	}
	sql := fmt.Sprintf("SELECT ssn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE Ts >= %d) q ALIGN b ON q.ssn = b.ssn) x", minTS+9*(maxTS-minTS)/10)
	rows := 0
	drain := func() { rows = drainCount(t, db, "time_align", sql) }
	drain() // plan cache, pipeline
	runtime.GC()
	bytes := bytesPerRun(3, drain) / float64(rows)
	t.Logf("time_align: %d rows, %.1f B/row", rows, bytes)
	if rows < 1000 {
		t.Fatalf("%d rows is not a meaningful result", rows)
	}
	const maxBytes = 800 // 1.25 × the 636 it reads
	if bytes > maxBytes && !raceflag.Enabled {
		t.Errorf("time_align: %.1f B per row, want at most %d", bytes, maxBytes)
	}
}

// pointShapes are the benchmark's point_prepared statement shapes, $1
// where the employee id goes.
var pointShapes = []struct{ name, sql string }{
	{"align_eq", "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p ALIGN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn) x"},
	{"normalize_eq", "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM b WHERE ssn = $1) q USING (ssn)) x"},
	{"join_eq", "SELECT p.ssn s1, q.pcn p2 FROM (SELECT ssn, pcn FROM a WHERE ssn = $1) p JOIN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn"},
	{"scan_eq", "SELECT ssn, pcn, Ts, Te FROM a WHERE ssn = $1"},
	{"agg_eq", "SELECT pcn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM a WHERE ssn = $1) q USING (pcn)) x GROUP BY pcn, Ts, Te"},
}

// TestAdhocPointAllocs pins what a point query costs once nothing is
// rebuilt for it. The prepared twin re-opens the pipeline its Prepared
// keeps: no operator tree, predicate kernel, key table or output buffer is
// allocated, and what is left — the Rows, the stream, the cursor, the
// deadline — is 5 mallocs whatever the shape (7 while the result columns
// were listed per execution; 95 / 135 / 96 / 33 / 166 while every
// execution built its tree), pinned at 20. Ad-hoc
// text with a literal never seen before, on a shape seen before, is not
// planned (PlanCache Plans does not move) and not parsed, and so costs what
// its twin costs plus the lex, the shape key and the lifted values: a
// handful of mallocs, pinned at 6 (or 10 %, whichever is more: the handful
// is most of a cost this small).
func TestAdhocPointAllocs(t *testing.T) {
	db, _ := allocPinDB(t, 1000)
	pointAllocs(t, db, db, 20)
}

// TestRemotePointAllocs is TestAdhocPointAllocs over talignd://, client
// and server in this one process: a statement is one query frame on the
// DB's pooled frame connection, answered by frames written and decoded
// with the connection's reused codec, so a prepared execution costs what
// the engine costs plus a request decode, a cursor and the schema and
// batch decode — 15 mallocs, pinned at 30, where one HTTP request per
// statement cost about 140.
func TestRemotePointAllocs(t *testing.T) {
	emb, _ := allocPinDB(t, 1000)
	ts := httptest.NewServer(emb.Server().Handler())
	t.Cleanup(ts.Close)
	db, err := Open("talignd://" + strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	pointAllocs(t, db, emb, 30)
}

// pointAllocs measures and pins the point shapes on db, whose engine is
// emb's: a prepared execution costs at most pin mallocs, and ad-hoc text
// with a literal never seen before, on a seen shape, its twin's plus a
// handful.
func pointAllocs(t *testing.T, db, emb *DB, pin float64) {
	ctx := context.Background()
	sess := db.Session("")
	const runs = 40
	for _, sh := range pointShapes {
		st, err := sess.Prepare(ctx, sh.sql)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		// Texts are built outside the measured calls; every one carries a
		// literal no statement before it had.
		texts := make([]string, 0, runs+2)
		for k := 0; k < cap(texts); k++ {
			texts = append(texts, strings.ReplaceAll(sh.sql, "$1", fmt.Sprint(k)))
		}
		drain := func(rs *Rows, err error) {
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			for rs.Next() {
			}
			if err := rs.Err(); err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			rs.Close()
		}
		k := 0
		prepared := func() { drain(st.Query(ctx, int64(k))); k++ }
		adhoc := func() { drain(db.Query(ctx, texts[k])); k++ }
		adhoc() // the shape's plan, from texts[0]
		twin := testing.AllocsPerRun(runs, prepared)
		plans := emb.Server().CacheStats().Plans
		k = 1
		text := testing.AllocsPerRun(runs, adhoc)
		if got := emb.Server().CacheStats().Plans; got != plans {
			t.Errorf("%s: %d plans built for %d never-seen literals on a seen shape", sh.name, got-plans, runs+1)
		}
		t.Logf("%-13s prepared %4.0f mallocs  ad-hoc %4.0f (+%.1f%%)", sh.name, twin, text, 100*(text-twin)/twin)
		if raceflag.Enabled {
			continue
		}
		if twin > pin {
			t.Errorf("%s: a prepared execution costs %.0f mallocs, want at most %.0f: is its pipeline rebuilt?", sh.name, twin, pin)
		}
		if limit := max(1.10*twin, twin+6); text > limit {
			t.Errorf("%s: ad-hoc text costs %.0f mallocs, its prepared twin %.0f; want at most %.0f", sh.name, text, twin, limit)
		}
	}
}

// TestOneConnectionPerClient: 200 statements on one DB travel over the
// one frame connection Open upgraded; the server sees no HTTP request
// after the upgrade.
func TestOneConnectionPerClient(t *testing.T) {
	emb, _ := allocPinDB(t, 200)
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		emb.Server().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	db, err := Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := db.Prepare(context.Background(), pointShapes[3].sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rs, err := st.Query(context.Background(), int64(i%20))
		if err != nil {
			t.Fatal(err)
		}
		for rs.Next() {
		}
		rs.Close()
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("the server saw %d HTTP requests, want the one upgrade", n)
	}
	if got := metric(emb.Server(), "talignd_frame_conns_total"); got != "1" {
		t.Errorf("talignd_frame_conns_total = %s, want 1", got)
	}
}

// TestIdlePipelineRetainsLittlePin pins the retention rule: a pipeline
// that ran over 8 000 rows a side goes idle holding what one that ran a
// point query holds — buffers of at most exec's keptRows — and nothing of
// the run: no build store, key table, chain index, key arena or output
// batch sized by the input. With the relations' columnar images memoized
// beforehand, and b's group index on ssn (kept with b's image, not with
// the pipeline) built by a NORMALIZE, two executions of align_ssn (the
// first plans and builds, the second re-opens) leave the live heap within
// 64 KiB of where it was (it reads 8; keeping a default batch per buffer
// read 94, and that was 15 % of embedded_temporal's peak RSS; keeping
// everything reads 854).
func TestIdlePipelineRetainsLittlePin(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 8 000-row relations")
	}
	if raceflag.Enabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	db, _ := allocPinDB(t, 8000)
	drainCount(t, db, "scan_a", "SELECT ssn, pcn, Ts, Te FROM a")
	drainCount(t, db, "scan_b", "SELECT ssn, pcn, Ts, Te FROM b")
	drainCount(t, db, "normalize_ssn", "SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x")
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	const align = "SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x"
	rows := drainCount(t, db, "align_ssn", align)
	if again := drainCount(t, db, "align_ssn", align); again != rows || rows < 8000 {
		t.Fatalf("align_ssn returned %d rows, then %d", rows, again)
	}
	if _, reused := db.Server().PipelineStats(); reused < 1 {
		t.Fatalf("the second execution did not re-open the first one's pipeline")
	}
	after := live()
	t.Logf("align_ssn over 2 x 8000 rows, %d result rows: live heap %d KiB -> %d KiB", rows, before>>10, after>>10)
	if after > before+64<<10 {
		t.Errorf("two executions left %d KiB live, want at most 64: an idle pipeline is holding its last run", (after-before)>>10)
	}
}

// allocPinCluster distributes srv's tables a and b over a coordinator
// with two in-process workers; front is the coordinator's own server.
func allocPinCluster(t *testing.T, srv *server.Server) (coord *distsql.Coordinator, front *server.Server) {
	t.Helper()
	flags := plan.DefaultFlags()
	var topo distsql.Topology
	for i := 0; i < 2; i++ {
		hs := httptest.NewServer(distsql.Handler(server.New(server.Config{Flags: flags})))
		t.Cleanup(hs.Close)
		topo.Workers = append(topo.Workers, distsql.Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	front = server.New(server.Config{Flags: flags})
	coord = distsql.New(front, topo, flags, nil)
	coord.Attach()
	for _, name := range []string{"a", "b"} {
		rel, _ := srv.Catalog().Snapshot().Lookup(name)
		if err := coord.DistributeTable(context.Background(), name, rel); err != nil {
			t.Fatal(err)
		}
	}
	return coord, front
}

// TestRemoteScanBytesPerRow pins the same plain scan over talignd://,
// server and client in this one process: encoding the frames, the
// loopback and a decoder that lays each batch over one reused buffer —
// and no copy of the batch at the cursor, which used to be 192 of the
// 2xx bytes a row cost here.
func TestRemoteScanBytesPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 8 000-row relations")
	}
	emb, _ := allocPinDB(t, 8000)
	ts := httptest.NewServer(emb.Server().Handler())
	t.Cleanup(ts.Close)
	db, err := Open("talignd://" + strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rows := 0
	drain := func() { rows = drainCount(t, db, "scan_a", "SELECT ssn, pcn, Ts, Te FROM a") }
	drain()
	runtime.GC()
	bytes := bytesPerRun(5, drain) / float64(rows)
	t.Logf("scan_a over talignd://: %d rows, %.1f B/row", rows, bytes)
	const limit = 25 // 1.25 × the 18–20 it reads
	if bytes > limit && !raceflag.Enabled {
		t.Errorf("scan_a over talignd:// allocates %.1f B per row, want at most %d", bytes, limit)
	}
}

// TestScatterFrameRingPin pins the gather hop's frame ring: a warm
// scatter ALIGN over two workers, at a batch size that makes every
// worker answer in dozens of rows frames, allocates at most one buffer
// per ring slot — workers × (channel depth 4 + 2) — where it used to
// allocate one per frame.
func TestScatterFrameRingPin(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 8 000-row relations")
	}
	emb, _ := allocPinDB(t, 8000)
	coord, front := allocPinCluster(t, emb.Server())
	metric := func(name string) uint64 {
		for _, m := range coord.DistMetrics() {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("no %s metric", name)
		return 0
	}
	frames := 0
	drain := func() {
		rs, err := front.StreamBatch(context.Background(), "", "", "SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x", nil, 128)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		for frames = 0; ; frames++ {
			if b, err := rs.NextBatch(); err != nil || b == nil {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	drain()
	before := metric("talignd_dist_frame_buffers_total")
	drain()
	bufs := metric("talignd_dist_frame_buffers_total") - before
	t.Logf("warm scatter align_ssn: %d rows frames, %d frame buffers allocated", frames, bufs)
	const ring = 2 * (4 + 2)
	if frames < 3*ring || bufs > ring {
		t.Errorf("%d rows frames allocated %d frame buffers, want many more frames than the %d ring slots and at most that many buffers", frames, bufs, ring)
	}
}

// TestPlanValidityAllocs pins what table-scoped plan validity costs a
// cache hit. On a server, checking every table a plan reads against the
// current catalog snapshot is pointer compares: 0 mallocs. On a
// coordinator, a warm DistStream open keys on the statement's shape and
// flags and validates stubs and partition columns the same way: it no
// longer formats a key string out of five versions, which was 4 of the 60
// mallocs this open cost before (what remains is the statement's
// classification).
func TestPlanValidityAllocs(t *testing.T) {
	db, _ := allocPinDB(t, 200)
	const join = "SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= 3"
	srv := db.Server()
	prep, err := srv.Prepare("", "pin", join)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prep.Deps()); n != 2 {
		t.Fatalf("the join records %d tables, want 2", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !srv.Catalog().Snapshot().Current(prep) {
			t.Fatal("a plan over unchanged tables is not current")
		}
	}); allocs != 0 {
		t.Errorf("validating a 2-table plan costs %.0f mallocs, want 0", allocs)
	}

	coord, _ := allocPinCluster(t, srv)
	ctx := context.Background()
	// EXPLAIN: the whole open — plan lookup, render — with no fragment
	// dispatched, so the count repeats. A cached distributed plan costs no
	// parse and no walk of the statement.
	st, err := sqlish.ParseLifted("EXPLAIN " + join)
	if err != nil {
		t.Fatal(err)
	}
	open := func() {
		res, handled, err := coord.DistStream(ctx, st, nil, 0)
		if err != nil || !handled || !strings.HasPrefix(res.Plan, "Distributed: scatter") {
			t.Fatalf("DistStream: handled=%v err=%v result %+v", handled, err, res)
		}
	}
	open()
	allocs := testing.AllocsPerRun(100, open)
	t.Logf("warm coordinator open: %.0f mallocs", allocs)
	if allocs > 4 && !raceflag.Enabled {
		t.Errorf("a warm coordinator open costs %.0f mallocs, want at most 4 (52 while the coordinator walked the AST per open)", allocs)
	}
}

// TestIngestBytesPerRow pins the ingest path on a store — CSV cells into
// column vectors, a sorted row permutation gathered into segments, the
// segment files mapped back as the table — which builds no tuple: a
// CREATE TABLE ... FROM CSV plus its DROP cost 2.05 mallocs and 954 B a
// row while the reader allocated a field slice per record and rows were
// materialized after decoding and again after loading, sorted as structs
// and converted back. What is left is the record strings, the growing
// column vectors and the encoded segments.
func TestIngestBytesPerRow(t *testing.T) {
	const n = 8000
	dir := t.TempDir()
	st, err := storage.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	db, err := Open("talign://mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Server().UseStore(st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c.csv")
	if err := csvio.WriteFile(path, dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		drainCount(t, db, "create", "CREATE TABLE c FROM CSV '"+path+"'")
		drainCount(t, db, "drop", "DROP TABLE c")
	}
	cycle()
	runtime.GC()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)
	mallocs := float64(after.Mallocs-before.Mallocs) / (runs * n)
	t.Logf("ingest + drop of %d rows: %.1f B/row, %.2f mallocs/row", n, bytes, mallocs)
	const maxBytes, maxMallocs = 253, 1.15 // 1.25 × the 202 B it reads; it reads 1.03 mallocs
	if (bytes > maxBytes || mallocs > maxMallocs) && !raceflag.Enabled {
		t.Errorf("ingest allocates %.1f B and %.2f mallocs per row, want at most %d B and %.2f", bytes, mallocs, maxBytes, maxMallocs)
	}
}
