// Package talign is the public client API of the temporal-alignment
// engine: one stable contract — DB, Session, Stmt, Rows — over two
// interchangeable backends selected by DSN:
//
//	talign://[demo][?opts]    embedded: the full engine in-process
//	                          (catalog, plan cache, admission gate)
//	talignd://host:port       remote: a talignd server over pooled frame
//	                          connections (binary frames both ways)
//
// Results are incremental cursors backed directly by the batch executor
// (embedded) or the streaming wire protocol (remote): rows arrive as the
// pipeline produces them, a LIMIT stops the pipeline early, and the
// context passed to Query/Prepare is plumbed into every operator's batch
// loop — cancelling it aborts the query wherever it runs, releasing its
// admission-gate slot.
//
// DSN options shared by both backends (query parameters):
//
//	batch=N         executor batch-size override
//	timeout=D       per-query deadline, a Go duration ("30s", "2m");
//	                embedded arms the server core's deadline, remote a
//	                client-side deadline covering the whole stream
//
// Remote-only DSN options:
//
//	retry=N         retries beyond the first attempt for statements whose
//	                connection cannot be dialed or upgraded, or that a
//	                draining server refuses (default 2), with exponential
//	                backoff and jitter
//
// Embedded-only DSN options:
//
//	demo            host part "demo" preloads the paper's hotel example
//	                relations r(n) and p(a, mn, mx)
//	load=name=path  load a CSV file as a relation (repeatable)
//	cache=N         prepared-plan cache capacity
//	max-dop=N       in-flight queries admitted at once (0 = unlimited)
//	max-rows=N      per-query row budget across operator boundaries
//	max-bytes=N     per-query byte budget across operator boundaries
//	analyze=0       skip the automatic ANALYZE of loaded tables
//
// A database/sql driver over this package lives in talign/sqldriver;
// stock Go applications need nothing beyond that driver registration.
package talign

import (
	"context"
	"fmt"

	"talign/internal/relation"
	"talign/internal/stats"
	"talign/internal/value"
)

// DB is a handle to an embedded engine instance or a remote talignd
// server. It is safe for concurrent use; queries issued through it share
// the backend's plan cache and admission gate. Close releases the
// backend (for remote DBs its idle frame connections).
type DB struct {
	backend backend
	dsn     string
}

// backend is the seam between the stable public contract and the two
// transports underneath it (AlignNet-style: one interface, embedded or
// remote execution behind it).
type backend interface {
	// query starts one execution and returns an incremental row source.
	// Exactly one of stmt (a prepared statement name) and sql is set.
	query(ctx context.Context, session, stmt, sql string, params []value.Value) (*Rows, error)
	// prepare registers sql under name in the session and reports the
	// statement's parameter count and result schema.
	prepare(ctx context.Context, session, name, sql string) (stmtMeta, error)
	// register adds a relation to the catalog (embedded only).
	register(name string, rel *relation.Relation) error
	// analyze refreshes a table's statistics (embedded only; remote
	// callers issue the ANALYZE statement instead).
	analyze(name string) (*stats.Table, error)
	// close releases the backend.
	close() error
}

// stmtMeta is what prepare learns about a statement.
type stmtMeta struct {
	numParams int
	columns   []string
	types     []string
}

// Open connects to the backend named by dsn: "talign://..." for an
// embedded engine, "talignd://host:port" (or an http:// URL) for a
// remote talignd server. The remote form opens its first frame connection
// before returning.
func Open(dsn string) (*DB, error) {
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	var b backend
	if cfg.remote != "" {
		b, err = openRemote(cfg)
	} else {
		b, err = openEmbedded(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &DB{backend: b, dsn: dsn}, nil
}

// Query executes one statement as an incremental cursor: rows stream out
// of the executor (or off the wire) as they are produced. args bind the
// statement's $1..$N placeholders in order. Cancelling ctx aborts the
// execution cooperatively — server-side for remote DBs — and the
// returned Rows must be Closed (Close is idempotent; exhausting the
// cursor closes it implicitly).
//
// EXPLAIN, EXPLAIN ANALYZE and ANALYZE statements produce no rows; their
// rendering is available through Rows.Plan.
func (db *DB) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	return db.backend.query(ctx, "", "", sql, params)
}

// Session returns a named scope for prepared statements. Sessions are
// cheap handles: statements prepared in one session are invisible to
// others, which is what lets many clients of one server (or one embedded
// DB) use the same statement names without collisions. An empty id gets
// a process-unique one.
func (db *DB) Session(id string) *Session {
	if id == "" {
		id = nextSessionID()
	}
	return &Session{db: db, id: id}
}

// Prepare is shorthand for preparing in an anonymous session.
func (db *DB) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	return db.Session("").Prepare(ctx, sql)
}

// Register adds (or replaces) a named relation in an embedded DB's
// catalog; it errors on remote DBs, whose catalog lives with the server.
func (db *DB) Register(name string, rel *relation.Relation) error {
	return db.backend.register(name, rel)
}

// Analyze computes and installs optimizer statistics for a registered
// table of an embedded DB (remote callers run the ANALYZE statement).
func (db *DB) Analyze(name string) (*stats.Table, error) {
	return db.backend.analyze(name)
}

// Close releases the backend. In-flight cursors keep working; new
// queries fail.
func (db *DB) Close() error { return db.backend.close() }

// String identifies the DB by its DSN.
func (db *DB) String() string { return db.dsn }

// Session is a prepared-statement scope on a DB (see DB.Session).
type Session struct {
	db *DB
	id string
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Query executes ad-hoc SQL in this session (see DB.Query).
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	return s.db.backend.query(ctx, s.id, "", sql, params)
}

// Prepare parses and plans sql once, registering it under a fresh name
// in the session; every Stmt.Query afterwards reuses the cached plan
// with new parameter bindings.
func (s *Session) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	name := nextStmtName()
	meta, err := s.db.backend.prepare(ctx, s.id, name, sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, name: name, meta: meta}, nil
}

// Stmt is a prepared statement bound to a session.
type Stmt struct {
	sess *Session
	name string
	meta stmtMeta
}

// NumParams reports how many $N placeholders the statement takes.
func (st *Stmt) NumParams() int { return st.meta.numParams }

// Columns lists the result columns: the visible attributes followed by
// the valid-time bounds "ts" and "te".
func (st *Stmt) Columns() []string { return append([]string(nil), st.meta.columns...) }

// Types lists the column type names, parallel to Columns.
func (st *Stmt) Types() []string { return append([]string(nil), st.meta.types...) }

// Query executes the prepared statement with args bound to $1..$N,
// returning an incremental cursor (see DB.Query for the contract).
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	if len(params) != st.meta.numParams {
		return nil, fmt.Errorf("talign: statement wants %d parameter(s), got %d", st.meta.numParams, len(params))
	}
	return st.sess.db.backend.query(ctx, st.sess.id, st.name, "", params)
}

// Close releases the statement handle. The plan stays in the backend's
// shared plan cache (eviction is LRU), so Close never costs a replan.
func (st *Stmt) Close() error { return nil }

// toValues converts Go argument values to engine values: nil, bool,
// integers, floats, strings, and value.Value pass through.
func toValues(args []any) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("talign: arg %d: %v", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// toValue converts one Go value to an engine value.
func toValue(a any) (value.Value, error) {
	switch t := a.(type) {
	case nil:
		return value.Null, nil
	case value.Value:
		return t, nil
	case bool:
		return value.NewBool(t), nil
	case int:
		return value.NewInt(int64(t)), nil
	case int32:
		return value.NewInt(int64(t)), nil
	case int64:
		return value.NewInt(t), nil
	case float32:
		return value.NewFloat(float64(t)), nil
	case float64:
		return value.NewFloat(t), nil
	case string:
		return value.NewString(t), nil
	case []byte:
		return value.NewString(string(t)), nil
	}
	return value.Null, fmt.Errorf("unsupported argument type %T", a)
}
