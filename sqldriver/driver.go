// Package sqldriver registers the temporal-alignment engine as a stock
// database/sql driver named "talign". A blank import is all an
// application needs:
//
//	import (
//		"database/sql"
//		_ "talign/sqldriver"
//	)
//
//	db, err := sql.Open("talign", "talign://demo")        // embedded
//	db, err := sql.Open("talign", "talignd://host:7411")  // remote
//
// Placeholders are the engine's $1..$N; PrepareContext plans once and
// executes many times through the backend's plan cache; QueryContext
// returns incrementally streamed rows; and the query's context cancels
// the execution backend-side, embedded or remote. Rows sit on the native
// talign.Rows cursor, which reads the executor's batch or the decoded
// wire frame in place: each cell goes from its column vector into
// database/sql's destination slice with no copy of the row in between,
// and what Scan hands the application is its own (strings included).
// Result sets list the visible columns followed by the valid-time bounds
// "ts" and "te" (int64 columns). EXPLAIN-style statements return a single
// "plan" column, one row per rendered line; ANALYZE works through Exec.
//
// Connections are read-only query channels: Exec of row-producing
// statements drains them, and transactions are not supported (relations
// are immutable snapshots; there is nothing to roll back).
//
// Embedded DSNs are shared: every connection to the same DSN uses one
// engine instance (catalog, plan cache, admission gate), so the pool
// behaves like a pool of sessions against one server, not N private
// databases.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"sync"

	"talign"
	"talign/internal/value"
)

func init() {
	sql.Register("talign", &Driver{})
}

// Driver is the database/sql/driver entry point.
type Driver struct{}

// Open connects with a one-shot connector (the database/sql package
// prefers OpenConnector when available).
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext: the DSN is validated
// and resolved to a shared talign.DB once, and every connection of the
// pool shares ONE backend session — statement names are process-unique,
// so sharing is safe, and it keeps a connection-churning pool from
// growing the server's session table without bound.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	db, err := sharedDB(dsn)
	if err != nil {
		return nil, err
	}
	return &connector{dsn: dsn, db: db, drv: d, sess: db.Session("")}, nil
}

// shared embedded/remote DB handles, one per DSN for the process
// lifetime: database/sql opens and closes conns dynamically, and an
// embedded catalog must survive the pool dropping to zero conns.
var (
	sharedMu  sync.Mutex
	sharedDBs = map[string]*talign.DB{}
)

func sharedDB(dsn string) (*talign.DB, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if db, ok := sharedDBs[dsn]; ok {
		return db, nil
	}
	db, err := talign.Open(dsn)
	if err != nil {
		return nil, err
	}
	sharedDBs[dsn] = db
	return db, nil
}

// Shared returns the native talign.DB behind a DSN — the same instance
// every database/sql connection to that DSN uses. It is the escape
// hatch for embedded applications that need the native API alongside
// database/sql (registering in-memory relations, reading the engine's
// metrics) without opening a second engine.
func Shared(dsn string) (*talign.DB, error) { return sharedDB(dsn) }

// connector hands the pool connections that share one backend session
// and one prepared-statement cache.
type connector struct {
	dsn  string
	db   *talign.DB
	drv  *Driver
	sess *talign.Session

	mu    sync.Mutex
	stmts map[string]*talign.Stmt
}

// Connect implements driver.Connector.
func (c *connector) Connect(ctx context.Context) (driver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &conn{c: c}, nil
}

// Driver implements driver.Connector.
func (c *connector) Driver() driver.Driver { return c.drv }

// stmt resolves query text to a backend prepared statement, preparing
// each distinct text once per pool: database/sql re-prepares per
// connection, and without this cache every re-prepare would register
// another named statement in the shared session forever.
func (c *connector) stmt(ctx context.Context, query string) (*talign.Stmt, error) {
	c.mu.Lock()
	st, ok := c.stmts[query]
	c.mu.Unlock()
	if ok {
		return st, nil
	}
	st, err := c.sess.Prepare(ctx, query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.stmts == nil {
		c.stmts = map[string]*talign.Stmt{}
	}
	if prev, ok := c.stmts[query]; ok {
		st = prev // another conn raced the prepare; reuse its name
	} else {
		c.stmts[query] = st
	}
	c.mu.Unlock()
	return st, nil
}

// conn is one pooled connection over the connector's shared session.
type conn struct {
	c *connector
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext (through the
// connector's shared statement cache).
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	st, err := c.c.stmt(ctx, query)
	if err != nil {
		return nil, err
	}
	return &stmt{st: st}, nil
}

// Close implements driver.Conn; the session's plans stay in the shared
// LRU cache.
func (c *conn) Close() error { return nil }

// Begin implements driver.Conn. The engine serves immutable snapshot
// relations; there are no transactions.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("talign: transactions are not supported")
}

// QueryContext implements driver.QueryerContext (ad-hoc statements skip
// the Prepare round-trip; the plan cache still catches repeats).
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	goArgs, err := namedArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := c.c.sess.Query(ctx, query, goArgs...)
	if err != nil {
		return nil, err
	}
	return wrapRows(r), nil
}

// ExecContext implements driver.ExecerContext: the statement runs to
// completion (ANALYZE refreshes statistics this way) and reports how
// many rows it produced.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	goArgs, err := namedArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := c.c.sess.Query(ctx, query, goArgs...)
	if err != nil {
		return nil, err
	}
	return drain(r)
}

// stmt is a prepared statement handle.
type stmt struct {
	st *talign.Stmt
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return s.st.Close() }

// NumInput implements driver.Stmt: the count of $N placeholders, which
// database/sql enforces before calling Query/Exec.
func (s *stmt) NumInput() int { return s.st.NumParams() }

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), valueArgs(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	goArgs, err := namedArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := s.st.Query(ctx, goArgs...)
	if err != nil {
		return nil, err
	}
	return wrapRows(r), nil
}

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), valueArgs(args))
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	goArgs, err := namedArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := s.st.Query(ctx, goArgs...)
	if err != nil {
		return nil, err
	}
	return drain(r)
}

// namedArgs converts driver.NamedValue arguments ($1..$N are strictly
// ordinal; named parameters are rejected).
func namedArgs(args []driver.NamedValue) ([]any, error) {
	out := make([]any, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("talign: named parameters are not supported (use $%d)", a.Ordinal)
		}
		out[a.Ordinal-1] = a.Value
	}
	return out, nil
}

// valueArgs adapts legacy positional driver.Value arguments.
func valueArgs(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for j, a := range args {
		out[j] = driver.NamedValue{Ordinal: j + 1, Value: a}
	}
	return out
}

// wrapRows adapts a talign cursor: plan-only results (EXPLAIN, EXPLAIN
// ANALYZE, ANALYZE through Query) become a one-column "plan" result with
// one row per rendered line.
func wrapRows(r *talign.Rows) driver.Rows {
	if p := r.Plan(); p != "" {
		r.Close()
		return &planRows{lines: strings.Split(strings.TrimRight(p, "\n"), "\n")}
	}
	return &rows{r: r}
}

// drain consumes a cursor to completion for Exec.
func drain(r *talign.Rows) (driver.Result, error) {
	defer r.Close()
	var n int64
	for r.Next() {
		n++
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return result{rows: n}, nil
}

// result reports how many rows an Exec produced.
type result struct{ rows int64 }

// LastInsertId implements driver.Result (never available).
func (result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("talign: no insert ids")
}

// RowsAffected implements driver.Result.
func (r result) RowsAffected() (int64, error) { return r.rows, nil }

// rows streams a talign cursor through the driver interface.
type rows struct {
	r *talign.Rows
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.r.Columns() }

// ColumnTypeDatabaseTypeName implements the optional driver interface,
// reporting the engine type names (int, float, string, bool, interval).
func (r *rows) ColumnTypeDatabaseTypeName(i int) string {
	types := r.r.Types()
	if i < len(types) {
		return strings.ToUpper(types[i])
	}
	return ""
}

// Close implements driver.Rows; closing early stops the producing
// pipeline without draining it.
func (r *rows) Close() error { return r.r.Close() }

// Next implements driver.Rows.
func (r *rows) Next(dest []driver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	for i, v := range r.r.Values() {
		dest[i] = driverValue(v)
	}
	return nil
}

// driverValue converts an engine value to a driver.Value.
func driverValue(v value.Value) driver.Value {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.Bool()
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	}
	return v.String()
}

// planRows renders EXPLAIN-style output as a one-column result set.
type planRows struct {
	lines []string
	pos   int
}

// Columns implements driver.Rows.
func (p *planRows) Columns() []string { return []string{"plan"} }

// Close implements driver.Rows.
func (p *planRows) Close() error { return nil }

// Next implements driver.Rows.
func (p *planRows) Next(dest []driver.Value) error {
	if p.pos >= len(p.lines) {
		return io.EOF
	}
	dest[0] = p.lines[p.pos]
	p.pos++
	return nil
}
