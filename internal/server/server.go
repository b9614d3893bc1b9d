// Package server implements talignd's concurrent query-serving layer on
// top of the sqlish Parse → Analyze → Plan → Execute pipeline: a
// copy-on-write catalog, an LRU cache of prepared plans keyed on
// statement shape (the normalized SQL with the literals of WHERE / ON
// comparisons lifted into hidden placeholders) + planner flags and valid
// while the catalog entries a plan was built from are unchanged, named
// prepared statements with $N placeholders scoped to sessions, an
// admission gate bounding the number of in-flight queries, and
// an HTTP/JSON front end (POST /query, POST /query/stream, POST /prepare,
// GET /explain, GET /healthz) and binary frame connections (GET /frames).
//
// Every execution is a RowStream, pulled as tuple batches (Next: the
// NDJSON encoder, embedded cursors, POST /query) or as columnar
// batches (NextBatch: the wire batch-frame encoder, which serves a
// columnar plan root straight off the executor). writeFrames is the one
// writer of a result stream, over HTTP and on frame connections.
//
// The layering invariant the whole package leans on: a sqlish.Prepared is
// immutable and its Execute builds a fresh executor tree per call, so one
// cached plan serves any number of concurrent executions; all mutable
// state (catalog map, cache LRU list, sessions, gate) is owned here and
// guarded explicitly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"talign/internal/exec"
	"talign/internal/plan"
	"talign/internal/sqlish"
	"talign/internal/stats"
	"talign/internal/storage"
	"talign/internal/value"
	"talign/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Flags are the planner flags every statement is planned under (the
	// fingerprint participates in plan-cache keys).
	Flags plan.Flags
	// CacheSize is the prepared-plan cache capacity (DefaultCacheSize when
	// zero).
	CacheSize int
	// MaxDOP bounds the number of in-flight queries (each runs on one
	// goroutine, so this is the executor's total width); 0 means
	// unlimited.
	MaxDOP int
	// Timeout is the per-query deadline: every execution (including its
	// wait at the admission gate) runs under a context that expires after
	// this long. 0 means no server-side deadline; clients can still bring
	// their own through the request context. Expiry aborts with the wire
	// code "timeout".
	Timeout time.Duration
	// MaxRows and MaxBytes are the per-query resource budget: cumulative
	// tuples / approximate bytes crossing operator boundaries (see
	// exec.Budget). 0 means unlimited; exhaustion aborts with the wire
	// code "resource".
	MaxRows  int64
	MaxBytes int64
}

// Server is the concurrent query server: it owns the catalog, the plan
// cache, the session table and the admission gate. All methods are safe
// for concurrent use.
type Server struct {
	flags     plan.Flags
	flagsFP   string
	catalog   *Catalog
	cache     *PlanCache[*sqlish.Prepared]
	gate      *Gate
	sess      sessions
	store     *storage.Store
	ddl       sync.Mutex // serialises CreateTable / DropTable (store.go)
	start     time.Time
	timeout   time.Duration
	maxRows   int64
	maxBytes  int64
	dist      Distributor
	draining  atomic.Bool
	drained   chan struct{} // closed by BeginDrain
	drainOnce sync.Once

	queries         atomic.Uint64
	errors          atomic.Uint64
	cancels         atomic.Uint64
	timeouts        atomic.Uint64
	resourceAborts  atomic.Uint64
	panics          atomic.Uint64
	streams         atomic.Uint64
	rowsStreamed    atomic.Uint64
	frameConns      atomic.Int64 // open; frameConnsTotal counts every upgrade
	frameConnsTotal atomic.Uint64
	fragments       atomic.Bool // EnableFragments: a coordinator's worker
	// Streamed executions that built / re-opened their executor tree.
	pipelinesBuilt, pipelinesReused atomic.Uint64
}

// New creates a server with an empty catalog.
func New(cfg Config) *Server {
	s := &Server{
		flags:    cfg.Flags,
		flagsFP:  cfg.Flags.Fingerprint(),
		catalog:  NewCatalog(),
		cache:    NewPlanCache[*sqlish.Prepared](cfg.CacheSize),
		gate:     NewGate(cfg.MaxDOP),
		start:    time.Now(),
		timeout:  cfg.Timeout,
		maxRows:  cfg.MaxRows,
		maxBytes: cfg.MaxBytes,
		drained:  make(chan struct{}),
	}
	// A table that changes takes its plans with it, at once: their scan
	// nodes are roots that keep the relation and its mappings alive.
	s.catalog.changed = func(table string) {
		s.cache.Invalidate(func(p *sqlish.Prepared) bool { return p.DependsOn(table) })
	}
	return s
}

// BeginDrain flips the server into draining mode: /readyz starts
// reporting 503, and new queries are refused with the wire code
// "unavailable" while in-flight executions (streaming cursors included)
// run to completion; frame connections close once idle. Draining is
// one-way — a drained server is on its way down.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drained) })
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// errDraining is the structured refusal new queries get while draining.
func errDraining() error {
	return &sqlish.Error{Code: sqlish.ErrUnavailable, Msg: "server is draining; not accepting new queries", Pos: -1}
}

// Catalog exposes the server's relation registry (for loading data).
func (s *Server) Catalog() *Catalog { return s.catalog }

// CacheStats exposes the plan-cache counters (tests and /healthz).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// PipelineStats reports how many streamed executions built their executor
// tree and how many re-opened one their plan kept (tests and /metrics).
func (s *Server) PipelineStats() (built, reused uint64) {
	return s.pipelinesBuilt.Load(), s.pipelinesReused.Load()
}

// GateStats exposes the admission-gate counters; a drained idle server
// must report zero in-flight queries.
func (s *Server) GateStats() GateStats { return s.gate.Stats() }

// plan resolves a parsed statement to a cached (or freshly prepared) plan
// against the current catalog snapshot, under its shape key (its literal
// normalized text where it was parsed un-lifted). A cached plan is served
// only if every catalog entry it was built from is the one the snapshot
// holds (Snapshot.Current), so DDL and ANALYZE on other tables cost this
// statement nothing and a change of one of its own tables is never
// missed. A miss prepares the AST in hand; nothing is parsed again. The
// second result reports a cache hit. batch is a per-request batch-size
// override (batch <= 0 keeps the server's configured flags). Overridden
// plans are cached like any other: the flags fingerprint in the cache key
// includes the batch size, so requests with different overrides never
// share a plan. A worker's fragment over staged relations takes this path
// too: its plan reads the worker's own tables, the staged ones are bound
// per execution (rebinds).
func (s *Server) plan(st *sqlish.Statement, batch int) (*sqlish.Prepared, bool, error) {
	flags, fp := s.flags, s.flagsFP
	if batch > 0 && batch != flags.BatchSize {
		flags.BatchSize = batch
		fp = flags.Fingerprint()
	}
	snap := s.catalog.Snapshot()
	ck := CacheKey{Shape: st.ShapeKey(), Flags: fp}
	if prep, ok := s.cache.Get(ck, snap.Current); ok {
		return prep, true, nil
	}
	prep, err := st.Prepare(snap, flags)
	if err != nil {
		return nil, false, err
	}
	s.cache.Put(ck, prep, func(p *sqlish.Prepared) bool { return s.catalog.Snapshot().Current(p) })
	return prep, false, nil
}

// Analyze computes and installs statistics for one table, invalidating
// the cached plans over that table (and no others). The scan
// runs outside the catalog lock; SetStatsIf discards the result if the
// table was re-registered (or dropped) meanwhile, so statistics can
// never describe a relation other than the registered one.
func (s *Server) Analyze(name string) (*stats.Table, error) {
	rel, ok := s.catalog.Snapshot().Lookup(name)
	if !ok {
		return nil, fmt.Errorf("server: ANALYZE: unknown table %q", name)
	}
	t := stats.Analyze(rel)
	if !s.catalog.SetStatsIf(name, rel, t) {
		return nil, fmt.Errorf("server: ANALYZE %s: table changed during analysis; re-run", name)
	}
	return t, nil
}

// AnalyzeAll analyzes every registered table (auto-analyze after bulk
// loads) and returns how many it processed; tables that change mid-scan
// are skipped (their next ANALYZE refreshes them).
func (s *Server) AnalyzeAll() int {
	snap := s.catalog.Snapshot()
	n := 0
	for _, name := range snap.Names() {
		if rel, ok := snap.Lookup(name); ok {
			if s.catalog.SetStatsIf(name, rel, stats.Analyze(rel)) {
				n++
			}
		}
	}
	return n
}

// Prepare parses, plans and caches sql, then registers the parsed
// statement under name in the session. The returned plan carries the
// statement's parameter count — the caller's $N only; slots its literals
// were lifted into stay invisible — and result schema. Parsing happens
// against the original text, so syntax errors carry the client
// statement's line/col.
func (s *Server) Prepare(sessionID, name, sql string) (*sqlish.Prepared, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("server: prepared statement needs a name")
	}
	st, err := sqlish.ParseLifted(sql)
	if err != nil {
		return nil, err
	}
	prep, _, err := s.plan(st, 0)
	if err != nil {
		return nil, err
	}
	s.sess.get(sessionID).setStmt(name, st)
	return prep, nil
}

// Explain renders the plan of ad-hoc SQL or of a named prepared
// statement, with the estimates of the statement's own literals: ad-hoc
// text is parsed un-lifted and planned (through the cache) under its
// literal normalized text, like an EXPLAIN statement; a named statement
// is the one parsed at /prepare, planned afresh rather than looked up —
// the cached plan of its shape may carry another statement's estimates.
func (s *Server) Explain(sessionID, stmtName, sql string) (string, error) {
	var st *sqlish.Statement
	var err error
	if stmtName != "" {
		st, err = s.sess.get(sessionID).stmt(stmtName)
	} else {
		st, _, err = sqlish.ParseNormalized(sql)
	}
	if err != nil {
		return "", err
	}
	if s.dist != nil {
		if text, handled, derr := s.dist.DistExplain(st); handled {
			return text, derr
		}
	}
	var prep *sqlish.Prepared
	if stmtName != "" {
		prep, err = st.Prepare(s.catalog.Snapshot(), s.flags)
	} else {
		prep, _, err = s.plan(st, 0)
	}
	if err != nil {
		return "", err
	}
	return prep.Explain(), nil
}

// ------------------------------------------------------------------ HTTP

// Handler returns the HTTP front end:
//
//	POST /query         {"sql": "...", "params": [...]} or
//	                    {"session": "s", "stmt": "name", "params": [...]}
//	POST /query/stream  same body; chunked NDJSON frame stream
//	POST /prepare       {"session": "s", "name": "q1", "sql": "... $1 ..."}
//	GET  /frames        Upgrade: talign-frames/1; then binary query and
//	                    prepare frames, one statement at a time (frames.go)
//	GET  /explain       ?sql=... | ?session=s&stmt=name     (text/plain)
//	GET  /healthz       liveness + catalog/cache/gate statistics
//	GET  /readyz        readiness: 200 while serving, 503 once draining
//	GET  /stats         per-table ANALYZE statistics + plan-cache counters
//	GET  /metrics       Prometheus text-format counters
//
// Every query executes under its request's (or frame connection's)
// context: a client that disconnects (or times out) cancels the context,
// and the cancellation propagates into every operator of the running plan.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("GET /frames", s.handleFrames)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// queryRequest is the POST /query and POST /prepare body.
type queryRequest struct {
	// Session scopes prepared statements; empty means DefaultSessionID.
	Session string `json:"session,omitempty"`
	// Name names the statement being prepared (POST /prepare only).
	Name string `json:"name,omitempty"`
	// Stmt executes a previously prepared statement by name.
	Stmt string `json:"stmt,omitempty"`
	// SQL is the ad-hoc statement text.
	SQL string `json:"sql,omitempty"`
	// Params bind $1..$N in order: JSON null, booleans, numbers (integers
	// stay int64, anything with a fraction becomes float) and strings.
	Params []any `json:"params,omitempty"`
	// Batch overrides the executor batch size for this request (from the
	// client DSN's batch= option); 0 keeps the server default.
	Batch int `json:"batch,omitempty"`
}

// queryResponse is the POST /query result. Columns and Types list the
// visible attributes followed by the valid-time bounds "ts" and "te";
// each row is the matching array of values.
type queryResponse struct {
	Columns  []string `json:"columns,omitempty"`
	Types    []string `json:"types,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	RowCount int      `json:"row_count"`
	Plan     string   `json:"plan,omitempty"`
	CacheHit bool     `json:"cache_hit"`
}

// prepareResponse is the POST /prepare result.
type prepareResponse struct {
	Session string   `json:"session"`
	Name    string   `json:"name"`
	Params  int      `json:"params"`
	Columns []string `json:"columns"`
	Types   []string `json:"types"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, params, err := decodeRequest(r)
	if err != nil {
		httpError(w, err)
		return
	}
	rs, err := s.StreamBatch(r.Context(), req.Session, req.Stmt, req.SQL, params, req.Batch)
	if err != nil {
		httpError(w, err)
		return
	}
	defer rs.Close()
	resp := queryResponse{Columns: rs.Columns(), Types: rs.Types(), Plan: rs.Plan(), CacheHit: rs.CacheHit()}
	// The whole stream is drained before a byte is written, so a failure
	// mid-stream still answers as a structured error.
	for b, err := rs.Next(); len(b) > 0 || err != nil; b, err = rs.Next() {
		if err != nil {
			httpError(w, err)
			return
		}
		resp.Rows = append(resp.Rows, cellRows(b)...)
	}
	resp.RowCount = len(resp.Rows)
	writeJSON(w, resp)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, _, err := decodeRequest(r)
	if err != nil {
		httpError(w, err)
		return
	}
	prep, err := s.Prepare(req.Session, req.Name, req.SQL)
	if err != nil {
		httpError(w, err)
		return
	}
	cols, types := SchemaColumns(prep)
	sessionID := req.Session
	if sessionID == "" {
		sessionID = DefaultSessionID
	}
	writeJSON(w, prepareResponse{
		Session: sessionID,
		Name:    req.Name,
		Params:  prep.NumParams,
		Columns: cols,
		Types:   types,
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	text, err := s.Explain(q.Get("session"), q.Get("stmt"), q.Get("sql"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.catalog.Snapshot()
	writeJSON(w, map[string]any{
		"ok":       true,
		"uptime_s": int64(time.Since(s.start).Seconds()),
		"queries":  s.queries.Load(),
		"errors":   s.errors.Load(),
		"sessions": s.sess.count(),
		"catalog": map[string]any{
			"version": snap.Version,
			"tables":  snap.Names(),
		},
		"cache": s.cache.Stats(),
		"gate":  s.gate.Stats(),
	})
}

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// a draining server is still alive (in-flight streams are finishing) but
// must stop receiving new work, so load balancers watch this endpoint.
// While draining it returns 503 with the structured "unavailable" error
// body every refused query also gets.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, errDraining())
		return
	}
	writeJSON(w, map[string]any{"ready": true})
}

// columnStatsJSON is one column's statistics in the GET /stats response.
type columnStatsJSON struct {
	Name        string  `json:"name"`
	Type        string  `json:"type"`
	Distinct    float64 `json:"distinct"`
	NullFrac    float64 `json:"null_frac"`
	Min         any     `json:"min"`
	Max         any     `json:"max"`
	HistBuckets int     `json:"hist_buckets"`
}

// tableStatsJSON is one table's entry in the GET /stats response.
type tableStatsJSON struct {
	Name     string            `json:"name"`
	Rows     int               `json:"rows"`
	Analyzed bool              `json:"analyzed"`
	Columns  []columnStatsJSON `json:"columns,omitempty"`
	Interval any               `json:"interval,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.catalog.Snapshot()
	tables := make([]tableStatsJSON, 0, snap.Len())
	for _, name := range snap.Names() {
		rel, _ := snap.Lookup(name)
		entry := tableStatsJSON{Name: name, Rows: rel.Len()}
		if t := snap.TableStats(name); t != nil && len(t.Cols) == rel.Schema.Len() {
			entry.Analyzed = true
			for i, c := range t.Cols {
				at := rel.Schema.Attrs[i]
				entry.Columns = append(entry.Columns, columnStatsJSON{
					Name:        at.Name,
					Type:        at.Type.String(),
					Distinct:    c.Distinct,
					NullFrac:    c.NullFrac,
					Min:         wire.Cell(c.Min),
					Max:         wire.Cell(c.Max),
					HistBuckets: c.Hist.Buckets(),
				})
			}
			entry.Interval = map[string]any{
				"span_ts":     t.T.Span.Ts,
				"span_te":     t.T.Span.Te,
				"avg_dur":     t.T.AvgDur,
				"distinct":    t.T.DistinctT,
				"avg_overlap": t.T.AvgOverlap,
			}
		}
		tables = append(tables, entry)
	}
	writeJSON(w, map[string]any{
		"catalog_version": snap.Version,
		"stats_version":   snap.StatsVersion,
		"tables":          tables,
		"cache":           s.cache.Stats(),
	})
}

// decodeRequest parses a JSON request body, converting params with
// json.Number semantics so integers survive exactly.
func decodeRequest(r *http.Request) (queryRequest, []value.Value, error) {
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("server: bad request body: %v", err)
	}
	params := make([]value.Value, len(req.Params))
	for i, p := range req.Params {
		v, err := wire.Value(p)
		if err != nil {
			return req, nil, fmt.Errorf("server: param $%d: %v", i+1, err)
		}
		params[i] = v
	}
	return req, params, nil
}

// SchemaColumns lists a prepared statement's result columns and types:
// the visible attributes followed by the valid-time bounds "ts" and
// "te", listed once per plan (sqlish.Prepared.Columns with no value
// bound, so a column that is exactly $N is ω; the slices are shared and
// must not be modified).
func SchemaColumns(prep *sqlish.Prepared) (cols, types []string) { return prep.Columns() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are sent; nothing more to do than note it in the log-less
		// world of this server.
		_ = err
	}
}

// httpError renders a structured JSON error {code, message, line, col}
// with the HTTP status the code implies: parse errors keep the offending
// token's statement position, other pipeline stages classify by code
// (see errorCode).
func httpError(w http.ResponseWriter, err error) {
	we := wire.FromError(err, errorCode(err))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusForCode(we.Code))
	json.NewEncoder(w).Encode(map[string]any{"error": we})
}

// statusForCode maps wire error codes to HTTP statuses: caller mistakes
// are 400s, lifecycle refusals and resource aborts get their
// conventional 5xx/429 statuses so proxies and retry layers can react
// without parsing the body.
func statusForCode(code string) int {
	switch code {
	case sqlish.ErrInternal:
		return http.StatusInternalServerError
	case sqlish.ErrUnavailable:
		return http.StatusServiceUnavailable
	case sqlish.ErrTimeout:
		return http.StatusGatewayTimeout
	case sqlish.ErrResource:
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// errorCode picks the wire code for a non-structured error. Resilience
// outcomes come first — recovered panics report "internal", budget
// aborts "resource", deadline expiry "timeout" (whichever side set the
// deadline), plain cancellation "cancelled" — then server-side
// request/protocol problems report "request" and everything else that
// reached execution reports "execute" (analyzer errors carry the sqlish
// prefix and report "analyze").
func errorCode(err error) string {
	var pe *exec.PanicError
	var be *exec.BudgetError
	msg := err.Error()
	switch {
	case errors.As(err, &pe):
		return sqlish.ErrInternal
	case errors.As(err, &be):
		return sqlish.ErrResource
	case errors.Is(err, context.DeadlineExceeded):
		return sqlish.ErrTimeout
	case errors.Is(err, context.Canceled):
		return sqlish.ErrCancelled
	case strings.HasPrefix(msg, "server:"):
		return "request"
	case strings.HasPrefix(msg, "sqlish:"):
		return sqlish.ErrAnalyze
	default:
		return sqlish.ErrExecute
	}
}
