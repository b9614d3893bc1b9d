package talign

import (
	"context"
	"fmt"
	"sync/atomic"

	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/stats"
	"talign/internal/value"
)

// embeddedDB runs the full engine in-process: the same server core that
// talignd wraps in HTTP — copy-on-write catalog, LRU plan cache,
// admission gate — minus the wire. Cursors returned by query read the
// executor's batches in place (the server.RowStream is the cursor's
// source); the admission-gate claim is held until the cursor closes.
type embeddedDB struct {
	srv    *server.Server
	closed atomic.Bool
}

// openEmbedded builds the in-process backend for a talign:// DSN.
func openEmbedded(cfg dsnConfig) (backend, error) {
	srv := server.New(server.Config{
		Flags:     cfg.flags(),
		CacheSize: cfg.cache,
		MaxDOP:    cfg.maxDOP,
		Timeout:   cfg.timeout,
		MaxRows:   int64(cfg.maxRows),
		MaxBytes:  int64(cfg.maxBytes),
	})
	if cfg.demo {
		r, p := dataset.Demo()
		srv.Catalog().Register("r", r)
		srv.Catalog().Register("p", p)
	}
	for _, load := range cfg.loads {
		rel, err := csvio.ReadFile(load[1])
		if err != nil {
			return nil, fmt.Errorf("talign: loading %s: %v", load[1], err)
		}
		srv.Catalog().Register(load[0], rel)
	}
	if cfg.analyze {
		srv.AnalyzeAll()
	}
	return &embeddedDB{srv: srv}, nil
}

func (e *embeddedDB) query(ctx context.Context, session, stmt, sql string, params []value.Value) (*Rows, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("talign: DB is closed")
	}
	rs, err := e.srv.StreamBatch(ctx, session, stmt, sql, params, 0)
	if err != nil {
		return nil, err
	}
	if rs.Plan() != "" {
		rs.Close()
		return &Rows{plan: rs.Plan(), cacheHit: rs.CacheHit()}, nil
	}
	return &Rows{
		cols:     rs.Columns(),
		types:    rs.Types(),
		cacheHit: rs.CacheHit(),
		src:      rs, // a vectorized plan root reaches the cursor as its own batches
	}, nil
}

func (e *embeddedDB) prepare(ctx context.Context, session, name, sql string) (stmtMeta, error) {
	if e.closed.Load() {
		return stmtMeta{}, fmt.Errorf("talign: DB is closed")
	}
	if err := ctx.Err(); err != nil {
		return stmtMeta{}, err
	}
	prep, err := e.srv.Prepare(session, name, sql)
	if err != nil {
		return stmtMeta{}, err
	}
	cols, types := server.SchemaColumns(prep)
	return stmtMeta{numParams: prep.NumParams, columns: cols, types: types}, nil
}

func (e *embeddedDB) register(name string, rel *relation.Relation) error {
	if e.closed.Load() {
		return fmt.Errorf("talign: DB is closed")
	}
	e.srv.Catalog().Register(name, rel)
	return nil
}

func (e *embeddedDB) analyze(name string) (*stats.Table, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("talign: DB is closed")
	}
	return e.srv.Analyze(name)
}

func (e *embeddedDB) close() error {
	e.closed.Store(true)
	return nil
}

// Server exposes the embedded server core (nil for remote DBs); the
// talign shell uses it for catalog loading and metrics.
func (db *DB) Server() *server.Server {
	if e, ok := db.backend.(*embeddedDB); ok {
		return e.srv
	}
	return nil
}
