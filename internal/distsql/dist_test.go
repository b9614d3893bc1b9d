package distsql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"talign/internal/faultinject"
	"talign/internal/interval"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/value"
	"talign/internal/wire"
)

// cluster is an in-process distributed deployment: n worker servers
// behind httptest listeners and a coordinator attached to its own server.
type cluster struct {
	coord   *Coordinator
	csrv    *server.Server
	wsrvs   []*server.Server
	workers []*node
}

// node is a worker's listener and every connection it accepted, so that a
// test can kill the worker the way a dead process dies: frame connections
// are hijacked, and httptest.Server.Close leaves those open.
type node struct {
	*httptest.Server
	mu    sync.Mutex
	conns []net.Conn
}

func startNode(t *testing.T, h http.Handler) *node {
	n := &node{Server: httptest.NewUnstartedServer(h)}
	n.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			n.mu.Lock()
			n.conns = append(n.conns, c)
			n.mu.Unlock()
		}
	}
	n.Start()
	t.Cleanup(n.kill)
	return n
}

// kill closes the listener and every connection.
func (n *node) kill() {
	n.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		c.Close()
	}
}

// noRetries makes every fragment operation's first failure final.
func (cl *cluster) noRetries() {
	for _, w := range cl.coord.client.workers {
		w.pool.Retries = 0
	}
}

// metric reads one /metrics value of srv.
func metric(t *testing.T, srv *server.Server, name string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	t.Fatalf("no %s metric", name)
	return 0
}

func newCluster(t *testing.T, n int, partition map[string]string) *cluster {
	t.Helper()
	return newClusterWrapped(t, n, partition, func(_ int, h http.Handler) http.Handler { return h })
}

// newClusterWrapped is newCluster with every worker's handler passed
// through wrap (worker index, real handler), so a test can stand between
// the coordinator and a worker.
func newClusterWrapped(t *testing.T, n int, partition map[string]string, wrap func(int, http.Handler) http.Handler) *cluster {
	t.Helper()
	flags := plan.DefaultFlags()
	cl := &cluster{}
	var topo Topology
	for i := 0; i < n; i++ {
		wsrv := server.New(server.Config{Flags: flags, MaxDOP: 16})
		hs := startNode(t, wrap(i, Handler(wsrv)))
		cl.wsrvs = append(cl.wsrvs, wsrv)
		cl.workers = append(cl.workers, hs)
		topo.Workers = append(topo.Workers, Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	cl.csrv = server.New(server.Config{Flags: flags, MaxDOP: 16})
	cl.coord = New(cl.csrv, topo, flags, partition)
	cl.coord.Attach()
	return cl
}

func (cl *cluster) load(t *testing.T, rels map[string]*relation.Relation) {
	t.Helper()
	for name, rel := range rels {
		if err := cl.coord.DistributeTable(context.Background(), name, rel); err != nil {
			t.Fatalf("DistributeTable(%s): %v", name, err)
		}
	}
	if err := cl.coord.AnalyzeWorkers(context.Background()); err != nil {
		t.Fatalf("AnalyzeWorkers: %v", err)
	}
}

// singleNode is the reference: one server holding the full relations.
func singleNode(t *testing.T, rels map[string]*relation.Relation) *server.Server {
	t.Helper()
	s := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
	for name, rel := range rels {
		s.Catalog().Register(name, rel)
	}
	s.AnalyzeAll()
	return s
}

// testRels builds the r/s/u relations of one differential seed.
func testRels(seed int) map[string]*relation.Relation {
	attrs := []schema.Attr{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}
	cfg := randrel.DefaultConfig(attrs...)
	cfg.MaxTuples = 12
	rng := rand.New(rand.NewSource(int64(1000 + seed)))
	return map[string]*relation.Relation{
		"r": randrel.Generate(rng, cfg),
		"s": randrel.Generate(rng, cfg),
		"u": randrel.Generate(rng, cfg),
	}
}

func assertSameRows(t *testing.T, tag, q string, got, want *relation.Relation) {
	t.Helper()
	gk, wk := sqltest.Keys(got), sqltest.Keys(want)
	if len(gk) != len(wk) {
		t.Fatalf("%s: row count diverged on %q: %d vs %d", tag, q, len(gk), len(wk))
	}
	for i := range gk {
		if !bytes.Equal(gk[i], wk[i]) {
			t.Fatalf("%s: diverged on %q at sorted row %d:\n% x\nvs\n% x", tag, q, i, gk[i], wk[i])
		}
	}
}

// diffQuery is one differential shape; params may be nil.
type diffQuery struct {
	sql    string
	params []value.Value
}

// distDiffQueries is the single-node optimizer corpus (opt_diff_test.go)
// plus distributed-specific shapes: repartition-requiring joins and
// temporal operators, the partial/final aggregate split, global
// aggregates, ORDER BY + LIMIT finals and bound parameters.
var distDiffQueries = []diffQuery{
	{sql: "SELECT a, b FROM r WHERE a = 1 AND b >= 1"},
	{sql: "SELECT a, b, Ts, Te FROM r WHERE a = 1 AND 1 = 1"},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= 1 AND r.b <= 2"},
	{sql: "SELECT r.a, s.b FROM r LEFT JOIN s ON r.a = s.a WHERE r.b >= 1"},
	{sql: "SELECT r.a, s.b FROM r RIGHT JOIN s ON r.a = s.a AND r.b >= 1 WHERE s.b <= 2"},
	{sql: "SELECT r.a ra, s.a sa, u.b ub FROM r JOIN s ON r.a = s.a JOIN u ON s.b = u.b WHERE u.a >= 1"},
	{sql: "SELECT r.b, s.b, u.b FROM r, s, u WHERE r.a = s.a AND s.b = u.b AND u.a = 1"},
	{sql: "SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a >= 1"},
	{sql: "SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x WHERE b = 2"},
	{sql: "SELECT a, COUNT(*) c FROM r WHERE b >= 0 GROUP BY a HAVING a >= 1"},
	{sql: "SELECT a, b FROM r WHERE a = 1 UNION SELECT a, b FROM s WHERE b = 1"},
	{sql: "SELECT DISTINCT a FROM r WHERE b = 0"},
	{sql: "SELECT ABSORB a, b, Ts, Te FROM r WHERE a >= 1"},
	{sql: "WITH w AS (SELECT a, b FROM r WHERE a >= 1) SELECT w1.a, w2.b FROM w w1 JOIN w w2 ON w1.a = w2.a"},
	{sql: "SELECT a, b FROM r WHERE a BETWEEN 0 AND 1 ORDER BY a, b"},
	// Distributed-specific shapes.
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.b = s.b WHERE r.a >= 0"},               // repartition: join key != partition column
	{sql: "SELECT a, b, Ts, Te FROM (r ALIGN s ON r.b = s.b) x"},                     // repartition under ALIGN
	{sql: "SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (b)) x"},                    // repartition under NORMALIZE
	{sql: "SELECT b, COUNT(*) c, SUM(a) sa, MIN(a) mn, MAX(a) mx FROM r GROUP BY b"}, // partial/final agg split
	{sql: "SELECT COUNT(*) c FROM r WHERE b >= 1"},                                   // global aggregate
	{sql: "SELECT a, COUNT(*) c FROM r GROUP BY a ORDER BY a"},                       // pinned groups + ordered final
	{sql: "SELECT a, b FROM r ORDER BY a, b LIMIT 100"},                              // ORDER BY + LIMIT final (limit > |r|)
	{sql: "SELECT DISTINCT b FROM r"},                                                // dedup off the partition column
	{sql: "SELECT a, b FROM r WHERE a >= $1 AND b <= $2", params: []value.Value{value.NewInt(0), value.NewInt(2)}},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= $1", params: []value.Value{value.NewInt(1)}},
	// Parameters keep their kind on the node hop: a whole float, NaN, and a
	// period (r's one tuple at seed 1, the wire differential's).
	{sql: "SELECT a, a / $1 q FROM r", params: []value.Value{value.NewFloat(4)}},
	{sql: "SELECT a, a + $1 q FROM r", params: []value.Value{value.NewFloat(math.NaN())}},
	{sql: "SELECT a, b FROM r WHERE PERIOD(Ts, Te) = $1", params: []value.Value{value.NewInterval(interval.New(12, 22))}},
	// Every merge form over the gathered rows; each ORDER BY ... LIMIT is
	// free of ties.
	{sql: "SELECT b, COUNT(*) c FROM r GROUP BY b HAVING COUNT(*) >= $1", params: []value.Value{value.NewInt(2)}},
	{sql: "SELECT b, SUM(a) s FROM r GROUP BY b ORDER BY s DESC, b LIMIT 2"},
	{sql: "SELECT b, COUNT(*) c, Ts, Te FROM r GROUP BY b, Ts, Te"},
	{sql: "SELECT ABSORB b, Ts, Te FROM r"},
	{sql: "SELECT DISTINCT b FROM r ORDER BY b, Ts, Te LIMIT 2"},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.b = s.b ORDER BY r.a, s.b, Ts, Te LIMIT 5"},
	// Strategies read off the plan: a FROM subquery scatters, arithmetic
	// over an aggregate splits, a LIMIT below the cut and a DISTINCT over
	// groups off the partition column gather; a DISTINCT over pinned groups
	// and groups of null-padded columns span shards.
	{sql: "SELECT q.a, s.b FROM (SELECT a, b FROM r WHERE b >= 1) q JOIN s ON q.a = s.a"},
	{sql: "SELECT b, SUM(a) + 1 s1 FROM r GROUP BY b"},
	{sql: "SELECT q.a, s.b FROM (SELECT a, b FROM r ORDER BY a, b, Ts, Te LIMIT 2) q JOIN s ON q.a = s.a"},
	{sql: "SELECT DISTINCT b, COUNT(*) c FROM r GROUP BY b"},
	{sql: "SELECT DISTINCT COUNT(*) c FROM r GROUP BY a"},
	{sql: "SELECT s.a, COUNT(*) c FROM r LEFT JOIN s ON r.a = s.a GROUP BY s.a"},
	// Tables outside the shard map are the local pipeline's.
	{sql: "SELECT a, b FROM l WHERE a >= 0"},
	{sql: "SELECT a FROM nosuch"},
}

// TestDistributedDifferential is the acceptance differential: for random
// relations, every corpus shape must return the exact same row set
// (values and valid time, byte-compared) through a 1-, 2- and 3-worker
// coordinator as on a single node, at the default batch size and at 3.
func TestDistributedDifferential(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for seed := 0; seed < 4; seed++ {
				rels := testRels(seed)
				single := singleNode(t, rels)
				cl := newCluster(t, workers, nil)
				cl.load(t, rels)
				single.Catalog().Register("l", rels["u"])
				cl.csrv.Catalog().Register("l", rels["u"])
				for _, q := range distDiffQueries {
					want, werr := sqltest.Run(context.Background(), single, "", "", q.sql, q.params, 0)
					got, gerr := sqltest.Run(context.Background(), cl.csrv, "", "", q.sql, q.params, 0)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("seed %d: error parity diverged on %q: single=%v dist=%v", seed, q.sql, werr, gerr)
					}
					if werr != nil {
						continue
					}
					assertSameRows(t, fmt.Sprintf("seed %d", seed), q.sql, got.Rel, want.Rel)

					// 3-row batches must match byte-for-byte too.
					small, serr := sqltest.Run(context.Background(), cl.csrv, "", "", q.sql, q.params, 3)
					if serr != nil {
						t.Fatalf("seed %d: batch=3 %q: %v", seed, q.sql, serr)
					}
					assertSameRows(t, fmt.Sprintf("seed %d batch=3", seed), q.sql, small.Rel, want.Rel)
				}
			}
		})
	}
}

// TestDistributedStrategies pins the planner's strategy choices via
// EXPLAIN: colocated scatters stay scatters, mismatched join keys
// repartition, aggregates off the partition column split, and WITH, a
// LIMIT below the cut and a DISTINCT over split groups fall back to
// gather.
func TestDistributedStrategies(t *testing.T) {
	rels := testRels(1)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT a, b FROM r WHERE a = 1", "Distributed: scatter over"},
		{"SELECT r.a, s.b FROM r JOIN s ON r.a = s.a", "Distributed: scatter over"},
		{"SELECT r.a, s.b FROM r JOIN s ON r.b = s.b", "repartition:"},
		{"SELECT b, COUNT(*) c FROM r GROUP BY b", "Distributed: partial-aggregate"},
		{"SELECT a, COUNT(*) c FROM r GROUP BY a", "Distributed: scatter over"},
		{"SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x", "Distributed: scatter over"},
		{"SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x", "Distributed: scatter over"},
		{"SELECT a, b FROM r ORDER BY a, b LIMIT 3", "Distributed: scatter+final"},
		{"WITH w AS (SELECT a FROM r) SELECT a FROM w", "Distributed: gather-all"},
		{"SELECT b, COUNT(*) c FROM r GROUP BY b HAVING COUNT(*) >= $1", "Distributed: partial-aggregate"},
		{"SELECT b, SUM(a) s FROM r GROUP BY b ORDER BY s DESC, b LIMIT 2", "Distributed: partial-aggregate"},
		{"SELECT b, COUNT(*) c, Ts, Te FROM r GROUP BY b, Ts, Te", "Distributed: partial-aggregate"},
		{"SELECT ABSORB b, Ts, Te FROM r", "Distributed: scatter+final"},
		{"SELECT DISTINCT b FROM r ORDER BY b, Ts, Te LIMIT 2", "Distributed: scatter+final"},
		{"SELECT r.a, s.b FROM r JOIN s ON r.b = s.b ORDER BY r.a, s.b, Ts, Te LIMIT 5", "Distributed: scatter+final over 2 worker(s)\n  repartition: r by b\n  repartition: s by b"},
		{"SELECT q.a, s.b FROM (SELECT a, b FROM r WHERE b >= 1) q JOIN s ON q.a = s.a", "Distributed: scatter over"},
		{"SELECT b, SUM(a) + 1 s1 FROM r GROUP BY b", "Distributed: partial-aggregate"},
		{"SELECT q.a, s.b FROM (SELECT a, b FROM r ORDER BY a, b, Ts, Te LIMIT 2) q JOIN s ON q.a = s.a", "Distributed: gather-all"},
		{"SELECT DISTINCT b, COUNT(*) c FROM r GROUP BY b", "Distributed: gather-all"},
	}
	for _, tc := range cases {
		res, err := sqltest.Run(context.Background(), cl.csrv, "", "", "EXPLAIN "+tc.sql, nil, 0)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", tc.sql, err)
		}
		if !strings.Contains(res.Plan, tc.want) {
			t.Errorf("EXPLAIN %s:\n%s\nwant substring %q", tc.sql, res.Plan, tc.want)
		}
	}
}

// TestPlanKeyInvalidation pins the distributed plan cache's per-table
// validity: a cached distributed plan survives everything that happens
// to tables it does not read, and dies with any change to one it does —
// a restage (new stub, new shards), a change of partition column, a
// drop. A topology change is a new coordinator, whose cache starts empty.
func TestPlanKeyInvalidation(t *testing.T) {
	ctx := context.Background()
	rels := testRels(2)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)

	const q = "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a"
	run := func(want bool, when string) {
		t.Helper()
		res, err := sqltest.Run(ctx, cl.csrv, "", "", q, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if res.CacheHit != want {
			t.Fatalf("%s: cache hit = %v, want %v (cache %+v)", when, res.CacheHit, want, cl.coord.cache.Stats())
		}
	}
	run(false, "first execution")
	run(true, "second execution")

	// Churn on a table the plan does not read: staged, restaged, dropped.
	for i := 0; i < 3; i++ {
		if err := cl.coord.DistributeTable(ctx, "u", testRels(3 + i)["u"]); err != nil {
			t.Fatal(err)
		}
		run(true, "after restaging u")
	}
	if _, err := sqltest.Run(ctx, cl.csrv, "", "", "DROP TABLE u", nil, 0); err != nil {
		t.Fatal(err)
	}
	run(true, "after dropping u")
	if st := cl.coord.cache.Stats(); st.Plans != 1 || st.Invalidated != 0 {
		t.Fatalf("churn on u re-planned or purged the plan over r, s: %+v", st)
	}

	// Restaging a table it reads: same schema, same column, new shards.
	if err := cl.coord.DistributeTable(ctx, "r", rels["r"]); err != nil {
		t.Fatal(err)
	}
	if st := cl.coord.cache.Stats(); st.Size != 0 || st.Invalidated != 1 {
		t.Fatalf("restaging r left its plan cached: %+v", st)
	}
	run(false, "after restaging r")
	run(true, "re-planned entry")

	// Same stub, another partition column: colocation no longer holds.
	cl.coord.setPart("s", "b")
	run(false, "after repartitioning s")
	if res, err := sqltest.Run(ctx, cl.csrv, "", "", "EXPLAIN "+q, nil, 0); err != nil || !strings.Contains(res.Plan, "repartition: s by a") {
		t.Fatalf("EXPLAIN after repartitioning s:\n%s\n%v", res.Plan, err)
	}

	// Another topology is another coordinator: nothing to inherit.
	cl3 := newCluster(t, 3, nil)
	cl3.load(t, rels)
	res, err := sqltest.Run(ctx, cl3.csrv, "", "", q, nil, 0)
	if err != nil || res.CacheHit {
		t.Fatalf("first execution on a 3-worker topology: hit=%v err=%v", res.CacheHit, err)
	}
}

// TestDistributedDDL proves ANALYZE and DROP broadcast through the
// coordinator with the single-node acknowledgement formats, and that a
// dropped table stops being distributable.
func TestDistributedDDL(t *testing.T) {
	rels := testRels(0)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)

	res, err := sqltest.Run(context.Background(), cl.csrv, "", "", "ANALYZE r", nil, 0)
	if err != nil {
		t.Fatalf("ANALYZE: %v", err)
	}
	want := fmt.Sprintf("ANALYZE r: %d rows, 2 columns", rels["r"].Len())
	if res.Plan != want {
		t.Fatalf("ANALYZE ack = %q, want %q", res.Plan, want)
	}

	res, err = sqltest.Run(context.Background(), cl.csrv, "", "", "DROP TABLE u", nil, 0)
	if err != nil {
		t.Fatalf("DROP: %v", err)
	}
	if res.Plan != "DROP TABLE u" {
		t.Fatalf("DROP ack = %q", res.Plan)
	}
	for i, w := range cl.wsrvs {
		if _, ok := w.Catalog().Snapshot().Lookup("u"); ok {
			t.Fatalf("worker %d still holds a shard of the dropped table", i)
		}
	}
	if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", "SELECT a FROM u", nil, 0); err == nil {
		t.Fatal("query over a dropped table succeeded")
	}
}

// faultArm arms a fault site for the test and resets the layer on exit.
func faultArm(t *testing.T, site string, after int, repeat bool) {
	t.Helper()
	faultinject.Arm(site, faultinject.Fault{Kind: faultinject.KindError, After: after, Repeat: repeat})
	t.Cleanup(faultinject.Reset)
}

// waitFor polls cond until timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerUnreachable is the degradation satellite: with one worker
// gone before dispatch, a query fails fast with the structured
// "unavailable" error naming the dead worker, the retry and unreachable
// counters advance, and the coordinator keeps serving.
func TestWorkerUnreachable(t *testing.T) {
	rels := testRels(0)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)
	cl.noRetries() // keep the failure fast; retry accounting is covered below

	cl.workers[1].kill()
	_, err := sqltest.Run(context.Background(), cl.csrv, "", "", "SELECT a, b FROM r", nil, 0)
	var se *sqlish.Error
	if !errors.As(err, &se) || se.Code != sqlish.ErrUnavailable {
		t.Fatalf("got %v, want structured %q error", err, sqlish.ErrUnavailable)
	}
	if !strings.Contains(se.Msg, "w1") {
		t.Fatalf("unavailable error does not name the dead worker: %q", se.Msg)
	}
	if cl.coord.client.unreachable.Load() == 0 {
		t.Fatal("talignd_worker_unreachable_total did not advance")
	}
	waitFor(t, 5*time.Second, "coordinator gate to drain", func() bool {
		return cl.csrv.GateStats().InUse == 0
	})
}

// TestCutMissingOnWorker: a fragment whose cut the worker's plan does not
// have fails as the worker's structured error naming it, never as rows.
func TestCutMissingOnWorker(t *testing.T) {
	cl := newCluster(t, 2, nil)
	cl.load(t, testRels(0))
	ws := cl.coord.client.startExec(context.Background(), cl.coord.client.workers[1], wire.Frame{Frame: wire.FrameQuery, SQL: "SELECT a, b FROM r", Cut: sqlish.CutAggregate})
	ws.finish()
	var se *sqlish.Error
	if !errors.As(ws.err, &se) || se.Code != sqlish.ErrRequest || !strings.Contains(se.Msg, "worker w1") {
		t.Fatalf("an aggregate cut of a plan without one: %v, want a request error naming w1", ws.err)
	}
}

// TestUpgradeCancelled: a fragment cancelled while its connection waits
// for a worker's answer to the upgrade fails with the cancellation at
// once, not after the upgrade timeout — so closing a fan-out early, which
// waits for every worker stream, is not held up by a dial.
func TestUpgradeCancelled(t *testing.T) {
	hung := startNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() }))
	p := wire.NewPool(hung.URL)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := p.RoundTrip(ctx, time.Minute, wire.Frame{Frame: wire.FrameQuery, SQL: "SELECT a FROM r"})
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 5*time.Second {
		t.Fatalf("a fragment cancelled during the upgrade: %v after %v; want the cancellation at once", err, took)
	}
}

// TestDispatchRetry proves a transient dispatch failure is retried with
// backoff and succeeds, advancing talignd_fragment_retries_total without
// touching the unreachable counter.
func TestDispatchRetry(t *testing.T) {
	rels := testRels(0)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)

	faultArm(t, "distsql.dispatch", 1, false)
	res, err := sqltest.Run(context.Background(), cl.csrv, "", "", "SELECT a, b FROM r", nil, 0)
	if err != nil {
		t.Fatalf("query with one transient dispatch fault: %v", err)
	}
	if res.Rel == nil {
		t.Fatal("no rows returned")
	}
	if retries, _, _ := cl.coord.client.poolStats(); retries == 0 {
		t.Fatal("talignd_fragment_retries_total did not advance")
	}
	if got := cl.coord.client.unreachable.Load(); got != 0 {
		t.Fatalf("unreachable = %d after a recovered retry, want 0", got)
	}
}

// TestChaosWorkerKilledMidStream is the chaos satellite (run with
// -race): a worker killed while its shard stream is in flight must
// surface as a structured "unavailable" error naming the worker, leak no
// goroutines, and leave the coordinator's admission gate drained.
func TestChaosWorkerKilledMidStream(t *testing.T) {
	attrs := []schema.Attr{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}
	cfg := randrel.DefaultConfig(attrs...)
	cfg.MaxTuples = 4000
	rng := rand.New(rand.NewSource(7))
	rels := map[string]*relation.Relation{"r": randrel.Generate(rng, cfg)}

	cl := newCluster(t, 2, nil)
	cl.load(t, rels)
	cl.noRetries()

	// Warm the connection pool, then baseline: the cluster's own listener
	// and keep-alive goroutines must not count as query leaks.
	if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", "SELECT a FROM r WHERE a = 0", nil, 0); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	baseline := runtime.NumGoroutine()

	// A worker panic mid-stream closes its frame connection without a
	// terminal frame — byte-for-byte what a kill -9 mid-query looks like
	// to the coordinator. After=3 lets row frames flush first.
	faultinject.Arm("server.stream.rows", faultinject.Fault{Kind: faultinject.KindPanic, After: 3})
	t.Cleanup(faultinject.Reset)

	rs, err := cl.csrv.StreamBatch(context.Background(), "", "", "SELECT a, b, Ts, Te FROM r", nil, 8)
	if err != nil {
		t.Fatalf("StreamBatch: %v", err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	for {
		b, nerr := rs.Next()
		if nerr != nil {
			var se *sqlish.Error
			if !errors.As(nerr, &se) || se.Code != sqlish.ErrUnavailable {
				t.Fatalf("mid-stream kill: got %v, want structured %q error", nerr, sqlish.ErrUnavailable)
			}
			if !strings.Contains(se.Msg, "worker w") {
				t.Fatalf("mid-stream kill error does not name a worker: %q", se.Msg)
			}
			break
		}
		if len(b) == 0 {
			t.Fatal("stream completed cleanly despite a worker dying mid-query")
		}
	}
	rs.Close()

	waitFor(t, 5*time.Second, "coordinator gate to drain", func() bool {
		return cl.csrv.GateStats().InUse == 0
	})
	waitFor(t, 5*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+4
	})
}

// TestWorkerFaultInjection arms the worker-side fragment site: the
// injected error must cross the wire as a structured error frame, not a
// transport failure, and leave the worker's connection serving.
func TestWorkerFaultInjection(t *testing.T) {
	rels := testRels(0)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)
	cl.noRetries()

	faultArm(t, "distsql.fragment", 0, true)
	_, err := sqltest.Run(context.Background(), cl.csrv, "", "", "SELECT a, b FROM r", nil, 0)
	var se *sqlish.Error
	if !errors.As(err, &se) || se.Code == sqlish.ErrUnavailable || !strings.Contains(se.Msg, "distsql.fragment") {
		t.Fatalf("query with the fragment site faulted: %v, want the injected error", err)
	}
	waitFor(t, 5*time.Second, "coordinator gate to drain", func() bool {
		return cl.csrv.GateStats().InUse == 0
	})
	faultinject.Reset()
	if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", "SELECT a, b FROM r", nil, 0); err != nil {
		t.Fatalf("after the fault: %v", err)
	}
	// Worker 0's error frame is read before the merge fails the query; the
	// failure cancels worker 1's exchange, which may still be in flight and
	// then loses its connection.
	if n := metric(t, cl.wsrvs[0], "talignd_frame_conns_total"); n != 1 {
		t.Errorf("worker 0 upgraded %d frame connections, want the one its error frame left serving", n)
	}
}

// TestRepartitionCleanup proves repartition temps are unstaged from every
// worker after the query answers, and that no worker caches a plan over
// them.
func TestRepartitionCleanup(t *testing.T) {
	rels := testRels(0)
	cl := newCluster(t, 2, nil)
	cl.load(t, rels)

	q := "SELECT r.a, s.b FROM r JOIN s ON r.b = s.b"
	if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", q, nil, 0); err != nil {
		t.Fatalf("repartition query: %v", err)
	}
	if cl.coord.repartitions.Load() == 0 {
		t.Fatal("query did not take the repartition path")
	}
	unstaged := func() bool {
		for _, w := range cl.wsrvs {
			snap := w.Catalog().Snapshot()
			for _, name := range snap.Names() {
				if strings.HasPrefix(name, "__rp") {
					return false
				}
			}
		}
		return true
	}
	waitFor(t, 5*time.Second, "repartition temps to unstage", unstaged)
	sizes := []int{cl.wsrvs[0].CacheStats().Size, cl.wsrvs[1].CacheStats().Size}
	for i := 0; i < 5; i++ {
		if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", q, nil, 0); err != nil {
			t.Fatalf("repartition query: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "repartition temps to unstage", unstaged)
	for i, w := range cl.wsrvs {
		if n := w.CacheStats().Size; n != sizes[i] {
			t.Errorf("worker %d caches %d plans after five more runs, %d after the first", i, n, sizes[i])
		}
	}
}

// TestFragmentConnsReused: after a warm-up, rounds of every strategy that
// reaches the workers — scatter, scatter+final, partial-aggregate,
// repartition — and of DistributeTable run on the coordinator's pooled
// frame connections: no worker upgrades another connection or sees any
// HTTP request but the upgrades.
func TestFragmentConnsReused(t *testing.T) {
	var others atomic.Int32
	cl := newClusterWrapped(t, 2, nil, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != "/frames" {
				others.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	rels := testRels(0)
	cl.load(t, rels)
	round := func() {
		t.Helper()
		for _, q := range []string{
			"SELECT a, b FROM r WHERE a >= 0",
			"SELECT a, b FROM r ORDER BY a, b LIMIT 3",
			"SELECT b, COUNT(*) c FROM r GROUP BY b",
			"SELECT r.a, s.b FROM r JOIN s ON r.b = s.b",
		} {
			if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", q, nil, 0); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		if err := cl.coord.DistributeTable(context.Background(), "u", rels["u"]); err != nil {
			t.Fatal(err)
		}
	}
	round()
	before := []int{metric(t, cl.wsrvs[0], "talignd_frame_conns_total"), metric(t, cl.wsrvs[1], "talignd_frame_conns_total")}
	var built, reused [2]uint64
	for i, w := range cl.wsrvs {
		built[i], reused[i] = w.PipelineStats()
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if cl.coord.scatters.Load() == 0 || cl.coord.scatterFinals.Load() == 0 || cl.coord.partialAggs.Load() == 0 || cl.coord.repartitions.Load() == 0 {
		t.Fatal("the rounds did not reach every strategy")
	}
	for i, w := range cl.wsrvs {
		if n := metric(t, w, "talignd_frame_conns_total"); n != before[i] {
			t.Errorf("worker %d: %d frame connections after 50 rounds, %d after the warm-up", i, n, before[i])
		}
		// A round re-opens the scatter, body and aggregate fragments and the
		// join's two gather scans, and builds the join's fragment, whose
		// staged relations are new at every execution.
		if b, r := w.PipelineStats(); b-built[i] != 50 || r-reused[i] != 250 {
			t.Errorf("worker %d: %d pipelines built and %d re-opened in 50 rounds, want 50 and 250", i, b-built[i], r-reused[i])
		}
	}
	if n := others.Load(); n != 0 {
		t.Errorf("the workers saw %d HTTP requests that were not upgrades", n)
	}
}
