package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"talign"
	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/distsql"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/storage"
	"talign/internal/value"
)

// Statement texts shared by several workloads. They are frozen: a later
// change that edits one of them is a benchmark change, not a speed-up.
const (
	sqlAlignSSN     = "SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x"
	sqlNormalizeSSN = "SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x"
	sqlNormalizePCN = "SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (pcn)) x"
	sqlScanA        = "SELECT ssn, pcn, Ts, Te FROM a"
	// The temporal left outer join of Table 2: align both sides under θ,
	// join on θ plus equal adjusted timestamps, absorb temporal duplicates.
	sqlOuterJoin = "SELECT ABSORB rid, rgrp, a, lo, x.Ts, x.Te " +
		"FROM (dr ALIGN ds ON dr.rgrp = ds.lo) x " +
		"LEFT OUTER JOIN (ds ALIGN dr ON dr.rgrp = ds.lo) y " +
		"ON x.rgrp = y.lo AND x.Ts = y.Ts AND x.Te = y.Te"
	sqlTemporalAgg = "SELECT pcn, COUNT(*) c, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te"
	sqlAggPCN      = "SELECT pcn, COUNT(*) c FROM a GROUP BY pcn"
)

// workloadSpec is one entry of the benchmark's fixed workload set.
type workloadSpec struct {
	name string
	// n is the frozen number of rows per Incumben relation.
	n     int
	why   string
	setup func(cfg config) (*env, error)
}

// workloads lists the five workloads in the order they run. The sizes
// were calibrated once on the 2-core reference box (see README.md) and
// are frozen.
var workloads = []workloadSpec{
	{"embedded_temporal", 8000, "talign:// in memory: exec, colbatch and plan do the work; wire, storage and distsql do none", setupEmbedded},
	{"remote_stream", 8000, "the same statements over talignd://: NDJSON encode, loopback and client decode dominate", setupRemote},
	{"point_prepared", 1000, "tiny results, half plan-cache hits and half misses: parse, optimize, plan cache and HTTP round trips dominate", setupPoint},
	{"segments_rw", 64000, "segment store on disk, reads beside an ingest: the only workload where storage does most of the work", setupSegments},
	{"cluster_scatter", 8000, "coordinator over 2 workers: fragment dispatch and node-to-node row shipping in both directions", setupCluster},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// config is what one run of one workload is given.
type config struct {
	workload string
	n        int
	seed     int64
	// dir is a scratch directory the run owns (segment store, CSV input,
	// span dump); it is removed when the run ends.
	dir string
}

// statement is one step of a round. A query statement has sql (and args
// when it runs through a prepared handle); an op statement calls into a
// layer directly, for work no SQL statement reaches.
type statement struct {
	// name identifies the statement in output; layer is the suffix its
	// per-layer metrics carry (several statements may share one).
	name, layer string
	// sql renders the statement text for a round (constant for most).
	sql func(round int) string
	// args binds $1..$N for a round; non-nil means the statement runs
	// through stmt, a handle prepared during set-up.
	args func(round int) []any
	stmt *talign.Stmt
	// refSQL is the literal text whose result on a plain embedded engine
	// this statement must equal on the verification round (nil = none).
	refSQL func(round int) string
	// sameAs is the index of an earlier statement of the round whose
	// result this one must equal, or -1.
	sameAs int
	// wantPlan, for statements that return a plan line instead of rows.
	wantPlan string
	// op runs a non-SQL step.
	op func(ctx context.Context) error
	// varying marks statements whose text or bindings change per round,
	// so their results are not compared across rounds.
	varying bool
	// endsIngest marks the last step of segments_rw's ingest; the traced
	// run replays the store's half of the ingest after it.
	endsIngest bool
}

func fixedSQL(name, sql string) statement {
	text := func(int) string { return sql }
	return statement{name: name, layer: name, sql: text, refSQL: text, sameAs: -1}
}

// env is a set-up workload: the client connection, the round, and handles
// on the layers underneath for the traced run.
type env struct {
	db    *talign.DB
	stmts []statement
	// rels are the relations a plain embedded reference engine needs to
	// answer every refSQL.
	rels map[string]*relation.Relation
	// servers are the engines that execute the statements: the embedded
	// core or the remote server, or the cluster's workers.
	servers []*server.Server
	// front is the server the client talks to (the coordinator's on the
	// cluster workload, otherwise servers[0]).
	front    *server.Server
	coord    *distsql.Coordinator
	store    *storage.Store
	storeDir string
	// ingest is the relation segments_rw creates and drops every round.
	ingest  *relation.Relation
	closers []func()
}

// close releases the workload in reverse order of set-up; calling it
// again does nothing.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// incumbenPair generates the two relations every workload queries.
func incumbenPair(cfg config) map[string]*relation.Relation {
	return map[string]*relation.Relation{
		"a": dataset.Incumben(dataset.IncumbenConfig{Rows: cfg.n, Seed: cfg.seed}),
		"b": dataset.Incumben(dataset.IncumbenConfig{Rows: cfg.n, Seed: cfg.seed + 1}),
	}
}

// maxSSN is the largest employee id in rel (ids are dense from 0).
func maxSSN(rel *relation.Relation) int64 {
	var m int64
	for _, t := range rel.Tuples {
		if v := t.Vals[0].Int(); v > m {
			m = v
		}
	}
	return m
}

// filteredJoinSQL is the PR 4 filtered-join panel.
func filteredJoinSQL(a *relation.Relation) string {
	return fmt.Sprintf("SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= %d AND a.pcn >= 0", maxSSN(a)/10)
}

// newServer is a server core with the flags a DSN without options gets.
func newServer() *server.Server {
	return server.New(server.Config{Flags: plan.DefaultFlags()})
}

func registerAll(srv *server.Server, rels map[string]*relation.Relation) {
	for name, rel := range rels {
		srv.Catalog().Register(name, rel)
	}
	srv.AnalyzeAll()
}

// openEmbedded opens talign://mem over rels, analyzed.
func openEmbedded(rels map[string]*relation.Relation) (*talign.DB, error) {
	db, err := talign.Open("talign://mem")
	if err != nil {
		return nil, err
	}
	for name, rel := range rels {
		if err := db.Register(name, rel); err != nil {
			return nil, err
		}
		if _, err := db.Analyze(name); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// serve mounts srv's HTTP surface on a loopback listener and opens the
// one client connection to it.
func (e *env) serve(h *httptest.Server) error {
	e.closers = append(e.closers, h.Close)
	db, err := talign.Open("talignd://" + strings.TrimPrefix(h.URL, "http://"))
	if err != nil {
		return err
	}
	e.db = db
	e.closers = append(e.closers, func() { db.Close() })
	return nil
}

func setupEmbedded(cfg config) (*env, error) {
	rels := incumbenPair(cfg)
	// D_rand for the outer-join shape; its price-band columns are named
	// min/max, which the SQL dialect reserves for aggregates.
	dr, ds0 := dataset.Drand(cfg.n/4, cfg.seed)
	rels["dr"] = dr
	rels["ds"] = &relation.Relation{
		Schema: schema.MustNew(
			schema.Attr{Name: "a", Type: value.KindInt},
			schema.Attr{Name: "lo", Type: value.KindInt},
			schema.Attr{Name: "hi", Type: value.KindInt}),
		Tuples: ds0.Tuples,
	}
	db, err := openEmbedded(rels)
	if err != nil {
		return nil, err
	}
	e := &env{db: db, front: db.Server(), servers: []*server.Server{db.Server()}}
	e.closers = append(e.closers, func() { db.Close() })
	e.stmts = []statement{
		fixedSQL("align_ssn", sqlAlignSSN),
		fixedSQL("normalize_ssn", sqlNormalizeSSN),
		fixedSQL("normalize_pcn", sqlNormalizePCN),
		fixedSQL("outer_join", sqlOuterJoin),
		fixedSQL("temporal_agg", sqlTemporalAgg),
		fixedSQL("filtered_join", filteredJoinSQL(rels["a"])),
	}
	// No rels: this workload is the reference the others are checked
	// against, so its statements are only compared across rounds.
	return e, nil
}

func setupRemote(cfg config) (*env, error) {
	rels := incumbenPair(cfg)
	srv := newServer()
	registerAll(srv, rels)
	e := &env{rels: rels, front: srv, servers: []*server.Server{srv}}
	if err := e.serve(httptest.NewServer(srv.Handler())); err != nil {
		e.close()
		return nil, err
	}
	e.stmts = []statement{
		fixedSQL("scan_a", sqlScanA),
		fixedSQL("align_ssn", sqlAlignSSN),
		fixedSQL("normalize_ssn", sqlNormalizeSSN),
	}
	return e, nil
}

// pointShapes are the five statement shapes of point_prepared, each with
// $1 where the rotating employee id goes. Both inputs of every temporal
// operator are filtered explicitly: the optimizer pushes a predicate into
// the left input only, and an unfiltered right input would make every
// statement a full hash build, which is the executor's work, not the
// planner's.
var pointShapes = []struct{ name, sql string }{
	{"align_eq", "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p ALIGN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn) x"},
	{"normalize_eq", "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM b WHERE ssn = $1) q USING (ssn)) x"},
	{"join_eq", "SELECT p.ssn s1, q.pcn p2 FROM (SELECT ssn, pcn FROM a WHERE ssn = $1) p JOIN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn"},
	{"scan_eq", "SELECT ssn, pcn, Ts, Te FROM a WHERE ssn = $1"},
	{"agg_eq", "SELECT pcn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM a WHERE ssn = $1) q USING (pcn)) x GROUP BY pcn, Ts, Te"},
}

func setupPoint(cfg config) (*env, error) {
	rels := incumbenPair(cfg)
	srv := newServer()
	registerAll(srv, rels)
	e := &env{rels: rels, front: srv, servers: []*server.Server{srv}}
	if err := e.serve(httptest.NewServer(srv.Handler())); err != nil {
		e.close()
		return nil, err
	}
	employees := maxSSN(rels["a"]) + 1
	sess := e.db.Session("")
	// Ten prepared executions, then the same ten as ad-hoc text with the
	// literal inlined: the literal moves every round, so each ad-hoc
	// statement misses the plan cache and pays parse, analyze and
	// optimize, while its prepared twin binds into a cached plan.
	for twin := 0; twin < 2; twin++ {
		for i, sh := range pointShapes {
			slot := int64(twin*len(pointShapes) + i)
			lo := func(round int) int64 { return (int64(round)*10 + slot) % employees }
			literal := func(round int) string {
				return strings.ReplaceAll(sh.sql, "$1", fmt.Sprint(lo(round)))
			}
			st, err := sess.Prepare(context.Background(), sh.sql)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("prepare %s: %v", sh.name, err)
			}
			e.stmts = append(e.stmts, statement{
				name: fmt.Sprintf("prepared_%s_%d", sh.name, twin), layer: "prepared",
				sql:  func(int) string { return sh.sql },
				args: func(round int) []any { return []any{lo(round)} },
				stmt: st, refSQL: literal, sameAs: -1, varying: true,
			})
		}
	}
	for i := 0; i < 2*len(pointShapes); i++ {
		p := e.stmts[i]
		e.stmts = append(e.stmts, statement{
			name: strings.Replace(p.name, "prepared_", "adhoc_", 1), layer: "adhoc",
			sql: p.refSQL, sameAs: i, varying: true,
		})
	}
	return e, nil
}

func setupSegments(cfg config) (*env, error) {
	rels := incumbenPair(cfg)
	dir := filepath.Join(cfg.dir, "store")
	st, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	e := &env{rels: rels, store: st, storeDir: dir}
	e.closers = append(e.closers, func() { st.Close() })
	for _, name := range []string{"a", "b"} {
		if err := st.CreateTable(name, rels[name]); err != nil {
			e.close()
			return nil, err
		}
	}
	csvPath := filepath.Join(cfg.dir, "c.csv")
	c := dataset.Incumben(dataset.IncumbenConfig{Rows: cfg.n / 8, Seed: cfg.seed + 2})
	if err := csvio.WriteFile(csvPath, c); err != nil {
		e.close()
		return nil, err
	}
	e.ingest = c
	db, err := talign.Open("talign://mem")
	if err != nil {
		e.close()
		return nil, err
	}
	e.db = db
	e.closers = append(e.closers, func() { db.Close() })
	e.front, e.servers = db.Server(), []*server.Server{db.Server()}
	if _, err := e.front.UseStore(st); err != nil {
		e.close()
		return nil, err
	}
	e.front.AnalyzeAll()

	// Top decile of the start-point domain: segments are cut in (Ts, Te)
	// order, so about nine in ten lie wholly below t0 and prune.
	minTS, maxTS := rels["a"].Tuples[0].T.Ts, rels["a"].Tuples[0].T.Ts
	for _, t := range rels["a"].Tuples {
		minTS, maxTS = min(minTS, t.T.Ts), max(maxTS, t.T.Ts)
	}
	t0 := minTS + 9*(maxTS-minTS)/10
	create := fixedSQL("ingest_drop.create", fmt.Sprintf("CREATE TABLE c FROM CSV '%s'", strings.ReplaceAll(csvPath, "'", "''")))
	create.layer, create.refSQL = "ingest_drop", nil
	create.wantPlan = fmt.Sprintf("CREATE TABLE c: %d rows, 2 columns", c.Len())
	drop := fixedSQL("ingest_drop.drop", "DROP TABLE c")
	drop.layer, drop.refSQL, drop.wantPlan, drop.endsIngest = "ingest_drop", nil, "DROP TABLE c", true
	e.stmts = []statement{
		fixedSQL("time_scan_top10", fmt.Sprintf("SELECT ssn, pcn, Ts, Te FROM a WHERE Ts >= %d", t0)),
		fixedSQL("time_align", fmt.Sprintf("SELECT ssn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE Ts >= %d) q ALIGN b ON q.ssn = b.ssn) x", t0)),
		fixedSQL("scan_segments", sqlScanA),
		create,
		drop,
	}
	return e, nil
}

// clusterWorkers is the frozen cluster width.
const clusterWorkers = 2

// restageStmt is the cluster round's table-staging step; its client time
// is distsql.stage_us.
const restageStmt = "restage_c"

func setupCluster(cfg config) (*env, error) {
	rels := incumbenPair(cfg)
	e := &env{rels: rels}
	var topo distsql.Topology
	for i := 0; i < clusterWorkers; i++ {
		w := newServer()
		hs := httptest.NewServer(distsql.Handler(w))
		e.closers = append(e.closers, hs.Close)
		e.servers = append(e.servers, w)
		topo.Workers = append(topo.Workers, distsql.Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	e.front = newServer()
	e.coord = distsql.New(e.front, topo, plan.DefaultFlags(), nil)
	e.coord.Attach()
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if err := e.coord.DistributeTable(ctx, name, rels[name]); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := e.coord.AnalyzeWorkers(ctx); err != nil {
		e.close()
		return nil, err
	}
	if err := e.serve(httptest.NewServer(e.front.Handler())); err != nil {
		e.close()
		return nil, err
	}
	c := dataset.Incumben(dataset.IncumbenConfig{Rows: cfg.n / 8, Seed: cfg.seed + 2})
	// The join key is not the partition column, so both sides are
	// repartitioned through the coordinator; the ssn filter keeps the
	// result at or below n rows.
	join := fmt.Sprintf("SELECT a.ssn s1, b.ssn s2 FROM a JOIN b ON a.pcn = b.pcn WHERE a.ssn < %d", (maxSSN(rels["a"])+1)/8)
	e.stmts = []statement{
		fixedSQL("align_ssn", sqlAlignSSN),
		fixedSQL("normalize_ssn", sqlNormalizeSSN),
		fixedSQL("agg_pcn", sqlAggPCN),
		fixedSQL("join_pcn", join),
		{name: restageStmt, layer: restageStmt, sameAs: -1, op: func(ctx context.Context) error {
			return e.coord.DistributeTable(ctx, "c", c)
		}},
	}
	return e, nil
}

// workDir creates a fresh scratch directory under base.
func workDir(base, workload string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, workload+"-")
}
