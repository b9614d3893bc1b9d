package talign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"talign/internal/relation"
	"talign/internal/stats"
	"talign/internal/value"
	"talign/internal/wire"
)

// The remote client's fixed limits. A statement's first answer frame
// (held back while the query waits at the server's admission gate) must
// arrive within firstFrameTimeout, unless timeout= bounds the statement.
const (
	controlTimeout    = 10 * time.Second // a prepare
	firstFrameTimeout = 60 * time.Second
	maxIdleConns      = 2 // frame connections a DB keeps between statements
	defaultRetries    = 2 // retries beyond the first attempt
)

// remoteDB speaks to talignd over a pool of frame connections (see
// wire.Pool: retries under retry=, one free re-send on a connection that
// died idle): a statement is one query or prepare frame on a pooled
// connection, and a query's Rows read its answer off that connection.
type remoteDB struct {
	pool    *wire.Pool
	batch   int           // batch= DSN option, sent with every query
	timeout time.Duration // timeout= DSN option: client-side per-statement deadline
}

// openRemote builds the wire backend for a talignd:// DSN; its one round
// trip, a dial and upgrade, parks a connection for the first statement.
func openRemote(cfg dsnConfig) (backend, error) {
	r := &remoteDB{pool: wire.NewPool(cfg.remote), batch: cfg.batch, timeout: cfg.timeout}
	r.pool.Retries, r.pool.MaxIdle, r.pool.Ring = cfg.retry, maxIdleConns, 1 // the cursor is done with a batch before it asks for the next frame
	if cfg.retry < 0 {
		r.pool.Retries = defaultRetries
	}
	if err := r.pool.Connect(context.Background()); err != nil {
		if errors.As(err, new(*wire.UnreachableError)) {
			return nil, fmt.Errorf("talign: cannot reach talignd at %s: %v", cfg.remote, err)
		}
		return nil, err
	}
	return r, nil
}

func (r *remoteDB) query(ctx context.Context, session, stmt, sql string, params []value.Value) (*Rows, error) {
	c, first, err := r.pool.RoundTrip(ctx, cmp.Or(r.timeout, firstFrameTimeout),
		wire.Frame{Frame: wire.FrameQuery, Session: session, Stmt: stmt, SQL: sql, Params: params, BatchSize: r.batch})
	if err != nil {
		return nil, err
	}
	switch first.Frame {
	case wire.FrameSchema:
		if r.timeout == 0 {
			c.NoDeadline() // rows may take minutes to arrive; only timeout= bounds them
		}
		return &Rows{cols: first.Columns, types: first.Types, cacheHit: first.CacheHit, src: c}, nil
	case wire.FramePlan:
		f, err := c.Next()
		c.Close()
		if err == nil && f.Frame != wire.FrameStatus {
			err = wire.Unexpected(f)
		}
		if err != nil {
			return nil, err
		}
		return &Rows{plan: first.Plan, cacheHit: first.CacheHit}, nil
	}
	c.Close()
	return nil, wire.Unexpected(first)
}

func (r *remoteDB) prepare(ctx context.Context, session, name, sql string) (stmtMeta, error) {
	c, f, err := r.pool.RoundTrip(ctx, controlTimeout, wire.Frame{Frame: wire.FramePrepare, Session: session, Stmt: name, SQL: sql})
	if err != nil {
		return stmtMeta{}, err
	}
	c.Close()
	if f.Frame != wire.FramePrepared {
		return stmtMeta{}, wire.Unexpected(f)
	}
	return stmtMeta{numParams: f.NumParams, columns: f.Columns, types: f.Types}, nil
}

func (r *remoteDB) register(string, *relation.Relation) error {
	return fmt.Errorf("talign: Register needs an embedded DB; load the catalog on the talignd side")
}

func (r *remoteDB) analyze(string) (*stats.Table, error) {
	return nil, fmt.Errorf("talign: Analyze needs an embedded DB; run the ANALYZE statement instead")
}

func (r *remoteDB) close() error {
	r.pool.Close()
	return nil
}
