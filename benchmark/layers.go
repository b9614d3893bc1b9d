package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"talign/internal/exec"
	"talign/internal/plan"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/storage"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// counters is a snapshot of every counter the layers keep themselves.
// Deltas are taken around the client's own calls only, so the replay
// below never shows up in them.
type counters struct {
	cacheHits, cacheMisses, cacheEvictions, plansBuilt uint64
	walAppends, segsWritten                            uint64
	segsScanned, segsPruned                            uint64
	dist                                               map[string]uint64
}

func (e *env) readCounters() counters {
	c := counters{
		walAppends:  storage.WALAppends(),
		segsWritten: storage.SegmentsWritten(),
		segsScanned: exec.SegmentsScanned(),
		segsPruned:  exec.SegmentsPruned(),
	}
	for _, srv := range e.allServers() {
		cs := srv.CacheStats()
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
		c.cacheEvictions += cs.Evictions
		c.plansBuilt += cs.Plans
	}
	if e.coord != nil {
		c.dist = map[string]uint64{}
		for _, m := range e.coord.DistMetrics() {
			c.dist[m.Name] = m.Value
		}
	}
	return c
}

// allServers is every server core of the workload: the front one and,
// on the cluster, the workers behind it.
func (e *env) allServers() []*server.Server {
	if e.coord == nil {
		return e.servers
	}
	return append([]*server.Server{e.front}, e.servers...)
}

// add accumulates the delta after-before into c.
func (c *counters) add(before, after counters) {
	c.cacheHits += after.cacheHits - before.cacheHits
	c.cacheMisses += after.cacheMisses - before.cacheMisses
	c.cacheEvictions += after.cacheEvictions - before.cacheEvictions
	c.plansBuilt += after.plansBuilt - before.plansBuilt
	c.walAppends += after.walAppends - before.walAppends
	c.segsWritten += after.segsWritten - before.segsWritten
	c.segsScanned += after.segsScanned - before.segsScanned
	c.segsPruned += after.segsPruned - before.segsPruned
	for k, v := range after.dist {
		if c.dist == nil {
			c.dist = map[string]uint64{}
		}
		c.dist[k] += v - before.dist[k]
	}
}

// layerTimes is what replaying one statement on one server measured.
type layerTimes struct {
	parse, prepare, build, drain, encode, decode, stream   time.Duration
	prepareAllocs, drainAllocs, encodeAllocs, decodeAllocs uint64
	rows, batches, wireBytes                               int
}

// tracer holds the traced run's recorder and its reusable buffers.
type tracer struct {
	rec    *recorder
	tuples []tuple.Tuple
	bounds []int
	buf    bytes.Buffer
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replay walks one statement through the layers the client's call went
// through, from outside, each in its own span under parent: parse,
// prepare (analyze, plan, optimize), build, the cursor's batch loop,
// encoding the drained batches as wire rows frames, decoding them back,
// and last the server's own StreamBatch entry point over the same text.
// Allocation counts are read between spans, never inside one.
func (t *tracer) replay(op, parent int, srv *server.Server, overWire bool, sql string, params []value.Value) (layerTimes, error) {
	var lt layerTimes
	ctx := context.Background()
	rec := t.rec

	sp := rec.start("sqlish.parse", op, parent)
	st, _, err := sqlish.ParseNormalized(sql)
	lt.parse = rec.end(sp)
	if err != nil {
		return lt, err
	}

	m0 := mallocs()
	sp = rec.start("sqlish.prepare", op, parent)
	prep, err := st.Prepare(srv.Catalog().Snapshot(), plan.DefaultFlags())
	lt.prepare = rec.end(sp)
	if err != nil {
		return lt, err
	}
	lt.prepareAllocs = mallocs() - m0

	sp = rec.start("plan.build_open", op, parent)
	cur, err := prep.Stream(ctx, params...)
	lt.build = rec.end(sp)
	if err != nil {
		return lt, err
	}
	defer cur.Close()

	// A batch is valid until the next Next, so its tuples are copied into
	// a buffer that stopped growing after the first round; the values
	// behind them are immutable once handed out.
	t.tuples, t.bounds = t.tuples[:0], t.bounds[:0]
	m0 = mallocs()
	sp = rec.start("exec.drain", op, parent)
	for {
		b, err := cur.Next()
		if err != nil {
			rec.end(sp)
			return lt, err
		}
		if len(b) == 0 {
			break
		}
		t.tuples = append(t.tuples, b...)
		t.bounds = append(t.bounds, len(t.tuples))
	}
	lt.drain = rec.end(sp)
	lt.drainAllocs = mallocs() - m0
	lt.rows, lt.batches = len(t.tuples), len(t.bounds)

	if overWire {
		cols, types := server.SchemaColumns(prep)
		m0 = mallocs()
		sp = rec.start("wire.encode", op, parent)
		err = t.encodeFrames(cols, types)
		lt.encode = rec.end(sp)
		if err != nil {
			return lt, err
		}
		m1 := mallocs()
		lt.encodeAllocs, lt.wireBytes = m1-m0, t.buf.Len()
		sp = rec.start("wire.decode", op, parent)
		n, err := decodeFrames(bytes.NewReader(t.buf.Bytes()))
		lt.decode = rec.end(sp)
		if err != nil {
			return lt, err
		}
		lt.decodeAllocs = mallocs() - m1
		if n != lt.rows {
			return lt, fmt.Errorf("wire replay decoded %d rows of %d", n, lt.rows)
		}
	}

	sp = rec.start("server.stream", op, parent)
	rs, err := srv.StreamBatch(ctx, "", "", sql, params, 0)
	if err == nil {
		for {
			var b []tuple.Tuple
			if b, err = rs.Next(); err != nil || len(b) == 0 {
				break
			}
		}
		rs.Close()
	}
	lt.stream = rec.end(sp)
	return lt, err
}

// encodeFrames writes the drained batches the way the server's
// /query/stream handler does: a schema frame, one rows frame per
// executor batch with every cell through wire.Cell, a status frame.
func (t *tracer) encodeFrames(cols, types []string) error {
	t.buf.Reset()
	enc := json.NewEncoder(&t.buf)
	if err := enc.Encode(wire.Frame{Frame: wire.FrameSchema, Columns: cols, Types: types}); err != nil {
		return err
	}
	lo := 0
	for _, hi := range t.bounds {
		batch := t.tuples[lo:hi]
		lo = hi
		rows := make([][]any, len(batch))
		for i, tp := range batch {
			row := make([]any, 0, len(tp.Vals)+2)
			for _, v := range tp.Vals {
				row = append(row, wire.Cell(v))
			}
			rows[i] = append(row, tp.T.Ts, tp.T.Te)
		}
		if err := enc.Encode(wire.Frame{Frame: wire.FrameRows, Rows: rows}); err != nil {
			return err
		}
	}
	return enc.Encode(wire.Frame{Frame: wire.FrameStatus, RowCount: int64(len(t.tuples))})
}

// decodeFrames reads a frame stream the way the talignd:// client does:
// UseNumber, one frame at a time, every cell through wire.ValueAs under
// the schema frame's type hints into a row the caller would own.
func decodeFrames(r io.Reader) (rows int, err error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var types []string
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			return rows, err
		}
		switch f.Frame {
		case wire.FrameSchema:
			types = f.Types
		case wire.FrameRows:
			for _, cells := range f.Rows {
				row := make([]value.Value, len(cells))
				for i, c := range cells {
					if row[i], err = wire.ValueAs(c, types[i]); err != nil {
						return rows, err
					}
				}
				rows++
			}
		case wire.FrameStatus:
			return rows, nil
		default:
			return rows, fmt.Errorf("unexpected %q frame", f.Frame)
		}
	}
}

// opTrace is one traced statement: the client's call and the replay.
type opTrace struct {
	layer  string
	client time.Duration
	lt     layerTimes
	// replayed is false for steps with no statement to replay (DDL, the
	// cluster's restage).
	replayed bool
}

// runTraced measures the per-layer metrics. Untraced and traced rounds
// alternate, so that the tracing overhead compares two medians taken
// under the same conditions. A traced round first runs its statements
// back to back, as an untraced round does, each client call in a span;
// only then does it replay them, so the replay's own work and garbage
// never sit between two of the client's calls. Spans of one statement
// (the client's call and its replay) share an op id; the round's span is
// their parent.
func runTraced(e *env, cfg config, chk *checker, opts runOpts, stop func(int, time.Duration) bool, res *result) error {
	ctx := context.Background()
	t := &tracer{rec: newRecorder()}
	strategies := map[string]string{}
	if e.coord != nil {
		for _, st := range e.stmts {
			if st.op != nil {
				continue
			}
			rows, err := e.db.Query(ctx, "EXPLAIN "+st.sql(0))
			if err != nil {
				return fmt.Errorf("EXPLAIN %s: %v", st.name, err)
			}
			strategies[st.layer] = strategyOf(rows.Plan())
			rows.Close()
		}
	}
	var diskBytesPerRow float64
	if e.store != nil {
		diskBytesPerRow = float64(dirSize(e.storeDir)) / float64(e.rels["a"].Len()+e.rels["b"].Len())
	}

	var (
		ops                  []opTrace
		untracedMS, tracedMS []float64
		untracedFirstRowMS   []float64
		untracedRows         int
		total                counters
		createUS, dropUS     []float64
		outs                 = make([]outcome, len(e.stmts))
		errs                 = make([]error, len(e.stmts))
		opID                 int
		begin                = time.Now()
	)
	runRound := func(round int) float64 {
		t0 := time.Now()
		for i := range e.stmts {
			outs[i], errs[i] = e.exec(ctx, &e.stmts[i], round)
		}
		d := ms(time.Since(t0))
		chk.check(e, round, outs, errs)
		return d
	}
	for done := 0; !stop(done, time.Since(begin)); done++ {
		// Three rounds per turn. The first is not measured: it lets what
		// the previous turn's replay disturbed (processor caches, parked
		// threads, the idle connection) settle. The untraced and the
		// traced round then each follow a plain round and a collection,
		// so neither inherits the other's garbage.
		round := opts.warmup + 3*done
		runRound(round)
		runtime.GC()
		round++
		untracedMS = append(untracedMS, runRound(round))
		untracedFirstRowMS = append(untracedFirstRowMS, ms(outs[0].firstRow))
		for _, o := range outs {
			untracedRows += o.rows
		}
		runtime.GC()

		round++
		root := t.rec.start("round", 0, -1)
		traces := make([]opTrace, len(e.stmts))
		before := e.readCounters()
		t0 := time.Now()
		for i := range e.stmts {
			sp := t.rec.start("client.query", opID+1+i, root)
			outs[i], errs[i] = e.exec(ctx, &e.stmts[i], round)
			traces[i] = opTrace{layer: e.stmts[i].layer, client: t.rec.end(sp)}
		}
		tracedMS = append(tracedMS, ms(time.Since(t0)))
		total.add(before, e.readCounters())
		// The replay, too, starts from a collected heap: it does not pay
		// for the garbage of the client's calls.
		runtime.GC()

		for i := range e.stmts {
			st, ot := &e.stmts[i], &traces[i]
			opID++
			switch {
			case errs[i] != nil || st.op != nil:
			case st.wantPlan == "":
				var params []value.Value
				if st.args != nil {
					for _, a := range st.args(round) {
						params = append(params, value.NewInt(a.(int64)))
					}
				}
				// On the cluster every worker replays the statement over
				// its shard; a result waits for the slowest one, and every
				// shard's rows cross the wire.
				for _, srv := range e.servers {
					lt, err := t.replay(opID, root, srv, e.overWire(), st.sql(round), params)
					if err != nil {
						return fmt.Errorf("replay %s: %v", st.name, err)
					}
					// An ad-hoc text that changes every round missed the plan
					// cache when the client sent it, and that call cached it,
					// so the replay's StreamBatch hits. The planning the server
					// did for the client is the replayed parse and prepare.
					if st.varying && st.args == nil {
						lt.stream += lt.parse + lt.prepare
					}
					ot.lt = mergeShards(ot.lt, lt)
				}
				ot.replayed = true
			case st.endsIngest:
				// The ingest's storage half, replayed on the store itself.
				sp := t.rec.start("storage.create", opID, root)
				err := e.store.CreateTable("c_trace", e.ingest)
				createUS = append(createUS, us(t.rec.end(sp)))
				if err != nil {
					return err
				}
				sp = t.rec.start("storage.drop", opID, root)
				err = e.store.DropTable("c_trace")
				dropUS = append(dropUS, us(t.rec.end(sp)))
				if err != nil {
					return err
				}
			}
		}
		t.rec.end(root)
		ops = append(ops, traces...)
		chk.check(e, round, outs, errs)
	}

	layerMetrics(res, ops, len(tracedMS), total)
	for _, layer := range slices.Sorted(maps.Keys(strategies)) {
		res.set("distsql.strategy."+layer, strategyCodes[strategies[layer]])
		res.note("distsql.strategy.%s = %s", layer, strategies[layer])
	}
	if e.store != nil {
		res.set("storage.create_us", median(createUS))
		res.set("storage.drop_us", median(dropUS))
		res.set("storage.disk_bytes_per_row", diskBytesPerRow)
		if err := warmBoot(e, t.rec, res); err != nil {
			return err
		}
	}
	// What a traced round spends outside every span is this program's own
	// work between them (the collection, counter snapshots, MemStats reads).
	var harnessMS []float64
	for i, self := range selfTimes(t.rec.spans) {
		if t.rec.spans[i].Name == "round" {
			harnessMS = append(harnessMS, ms(self))
		}
	}
	res.note("a traced round's span has %.3f ms of self time (p50): the harness between the layers' spans", median(harnessMS))
	untraced := median(untracedMS)
	res.set("trace.overhead_pct", (median(tracedMS)-untraced)/untraced*100)
	res.set("round_ms_p50", untraced)
	res.set("round_ms_p90", percentile(untracedMS, 90))
	res.set("first_row_ms_p50", median(untracedFirstRowMS))
	var untracedSum float64
	for _, d := range untracedMS {
		untracedSum += d
	}
	res.set("rows_per_s", float64(untracedRows)/(untracedSum/1000))
	if !tailSupported(len(untracedMS), 90) {
		res.note("WARNING: %d untraced rounds leave fewer than ten samples beyond p90", len(untracedMS))
	}
	res.note("%d traced rounds (p50 %.3f ms) alternating with %d untraced (p50 %.3f ms)", len(tracedMS), median(tracedMS), len(untracedMS), untraced)
	for _, d := range perLayerMetrics {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, 0)
		}
	}
	if opts.keepSpans != "" {
		if err := os.MkdirAll(opts.keepSpans, 0o755); err != nil {
			return err
		}
		path := filepath.Join(opts.keepSpans, "spans-"+cfg.workload+".json")
		if err := t.rec.write(path); err != nil {
			return err
		}
		res.note("%d spans written to %s", len(t.rec.spans), path)
	}
	return nil
}

// overWire reports whether the client's rows cross a wire (talignd://).
func (e *env) overWire() bool { return e.front != e.db.Server() }

// mergeShards folds one more shard's replay into an operation's: the
// slowest shard sets the times a result waits for, every shard's rows
// and encoded bytes count.
func mergeShards(a, b layerTimes) layerTimes {
	return layerTimes{
		parse: max(a.parse, b.parse), prepare: max(a.prepare, b.prepare), build: max(a.build, b.build),
		drain: max(a.drain, b.drain), stream: max(a.stream, b.stream),
		encode: a.encode + b.encode, decode: a.decode + b.decode,
		prepareAllocs: max(a.prepareAllocs, b.prepareAllocs),
		drainAllocs:   a.drainAllocs + b.drainAllocs, encodeAllocs: a.encodeAllocs + b.encodeAllocs, decodeAllocs: a.decodeAllocs + b.decodeAllocs,
		rows: a.rows + b.rows, batches: a.batches + b.batches, wireBytes: a.wireBytes + b.wireBytes,
	}
}

// strategyOf names the execution shape an EXPLAIN of the coordinator
// reports: its first line, or "repartition" when the plan stages one.
func strategyOf(explain string) string {
	if strings.Contains(explain, "repartition:") {
		return "repartition"
	}
	first, _, _ := strings.Cut(explain, "\n")
	first = strings.TrimPrefix(first, "Distributed: ")
	name, _, _ := strings.Cut(first, " over ")
	return name
}

// layerMetrics turns the traced operations and counter deltas into the
// per-layer metrics. Times are medians per statement.
func layerMetrics(res *result, ops []opTrace, rounds int, c counters) {
	var parse, prepare, prepAllocs, build, overhead, residual []float64
	byLayer := map[string][]opTrace{}
	var rows, bytesOut int
	var enc, dec time.Duration
	var encAllocs, decAllocs uint64
	for _, o := range ops {
		byLayer[o.layer] = append(byLayer[o.layer], o)
		if !o.replayed {
			continue
		}
		parse = append(parse, us(o.lt.parse))
		prepare = append(prepare, us(o.lt.prepare))
		prepAllocs = append(prepAllocs, float64(o.lt.prepareAllocs))
		build = append(build, us(o.lt.build))
		overhead = append(overhead, us(o.lt.stream-o.lt.build-o.lt.drain))
		residual = append(residual, us(o.client-o.lt.stream-o.lt.encode-o.lt.decode))
		rows += o.lt.rows
		bytesOut += o.lt.wireBytes
		enc += o.lt.encode
		dec += o.lt.decode
		encAllocs += o.lt.encodeAllocs
		decAllocs += o.lt.decodeAllocs
	}
	res.set("sqlish.parse_us", median(parse))
	res.set("sqlish.prepare_us", median(prepare))
	res.set("sqlish.prepare_allocs", median(prepAllocs))
	res.set("plan.build_open_us", median(build))
	res.set("server.stream_overhead_us", median(overhead))
	res.set("net.residual_us", median(residual))
	if lookups := c.cacheHits + c.cacheMisses; lookups > 0 {
		res.set("server.plan_cache_hit_ratio", float64(c.cacheHits)/float64(lookups))
	}
	perRound := func(x uint64) float64 { return float64(x) / float64(rounds) }
	res.set("server.plan_cache_evictions", perRound(c.cacheEvictions))
	res.set("server.plans_built", perRound(c.plansBuilt))
	if bytesOut > 0 {
		krows := float64(rows) / 1000
		res.set("wire.encode_us_per_krow", us(enc)/krows)
		res.set("wire.decode_us_per_krow", us(dec)/krows)
		res.set("wire.bytes_per_row", float64(bytesOut)/float64(rows))
		res.set("wire.encode_allocs_per_row", float64(encAllocs)/float64(rows))
		res.set("wire.decode_allocs_per_row", float64(decAllocs)/float64(rows))
	}

	var roundClient, roundDrain float64
	for _, layer := range slices.Sorted(maps.Keys(byLayer)) {
		los := byLayer[layer]
		var client, drain, lrows, batches, allocs, shard, ship []float64
		for _, o := range los {
			client = append(client, us(o.client))
			if !o.replayed {
				continue
			}
			drain = append(drain, us(o.lt.drain))
			lrows = append(lrows, float64(o.lt.rows))
			batches = append(batches, float64(o.lt.batches))
			allocs = append(allocs, float64(o.lt.drainAllocs)/float64(max(o.lt.rows, 1)))
			shard = append(shard, us(o.lt.stream))
			ship = append(ship, us(o.client-o.lt.stream))
		}
		perRoundOps := float64(len(los)) / float64(rounds)
		roundClient += median(client) * perRoundOps
		if len(drain) == 0 {
			if layer == restageStmt {
				res.set("distsql.stage_us", median(client))
			}
			continue
		}
		roundDrain += median(drain) * perRoundOps
		res.set("exec.drain_us."+layer, median(drain))
		res.set("exec.rows."+layer, median(lrows))
		res.set("exec.batches."+layer, median(batches))
		res.set("exec.allocs_per_row."+layer, median(allocs))
		if c.dist != nil {
			res.set("distsql.shard_exec_us."+layer, median(shard))
			res.set("distsql.ship_us."+layer, median(ship))
		}
		res.note("%-16s client %10.1f us  exec.drain %10.1f us (%4.1f%% of the client's time) x %.0f per round",
			layer, median(client), median(drain), 100*median(drain)/median(client), perRoundOps)
	}
	res.note("exec.drain is %.1f%% of the round's client time", 100*roundDrain/roundClient)

	if scans := c.segsScanned + c.segsPruned; scans > 0 {
		res.set("storage.prune_ratio", float64(c.segsPruned)/float64(scans))
	}
	res.set("storage.segments_scanned", perRound(c.segsScanned))
	res.set("storage.wal_appends", perRound(c.walAppends))
	res.set("storage.segments_written", perRound(c.segsWritten))
	if c.dist != nil {
		d := func(name string) uint64 { return c.dist["talignd_"+name] }
		res.set("distsql.fragments_per_op", perRound(d("fragments_total")))
		res.set("distsql.rows_in_per_op", perRound(d("dist_rows_in_total")))
		res.set("distsql.rows_out_per_op", perRound(d("dist_rows_out_total")))
		res.set("distsql.bytes_in_per_row", float64(d("dist_bytes_in_total"))/float64(max(d("dist_rows_in_total"), 1)))
		res.set("distsql.bytes_out_per_row", float64(d("dist_bytes_out_total"))/float64(max(d("dist_rows_out_total"), 1)))
		res.set("distsql.retries", perRound(d("fragment_retries_total")))
	}
}

// warmBoot closes the workload and boots its store again, the way a
// restarted talignd -data does: checkpoint, open, load both tables, and
// decode every segment file once more on its own.
func warmBoot(e *env, rec *recorder, res *result) error {
	sp := rec.start("storage.checkpoint", 0, -1)
	err := e.store.Checkpoint()
	res.set("storage.checkpoint_us", us(rec.end(sp)))
	if err != nil {
		return err
	}
	e.close()

	sp = rec.start("storage.open", 0, -1)
	st, err := storage.Open(e.storeDir)
	res.set("storage.open_us", us(rec.end(sp)))
	if err != nil {
		return err
	}
	defer st.Close()
	loaded := storage.SegmentsLoaded()
	var loadUS float64
	for _, name := range []string{"a", "b"} {
		sp = rec.start("storage.load", 0, -1)
		_, err := st.Load(name)
		loadUS += us(rec.end(sp))
		if err != nil {
			return err
		}
	}
	res.set("storage.load_us", loadUS)
	res.set("storage.segments_loaded", float64(storage.SegmentsLoaded()-loaded))

	files, err := filepath.Glob(filepath.Join(e.storeDir, "*.tsg"))
	if err != nil {
		return err
	}
	var decodeUS []float64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		sp = rec.start("storage.decode_segment", 0, -1)
		_, _, err = storage.DecodeSegment(data)
		decodeUS = append(decodeUS, us(rec.end(sp)))
		if err != nil {
			return err
		}
	}
	res.set("storage.decode_segment_us", median(decodeUS))
	return nil
}

// dirSize sums the sizes of the regular files directly in dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
