package server

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/exec"
	"talign/internal/faultinject"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
)

// RowStream is one query's incremental result: schema metadata up front,
// then batches of rows pulled straight from the executor. It is the
// server-core primitive beneath every statement: the wire-level frame
// streaming (both encodings), POST /query's JSON answer and the public
// talign package's embedded cursors.
//
// A stream with a source holds the admission-gate unit its execution
// claimed until Close — a streaming client occupies its slot for as long
// as it keeps the cursor open — so Close must always be called.
// Statements that produce a plan rendering instead of rows (EXPLAIN,
// EXPLAIN ANALYZE, ANALYZE) return a RowStream with Plan set and no row
// batches; Close is then a no-op.
type RowStream struct {
	cols     []string
	types    []string
	plan     string
	cacheHit bool

	s       *Server
	src     BatchSource
	sch     schema.Schema
	rows    []tuple.Tuple // Next's buffer when the source has no row pull
	cancel  func()
	counted bool
	done    bool
}

// Columns lists the result columns: the visible attributes followed by
// the valid-time bounds "ts" and "te".
func (rs *RowStream) Columns() []string { return rs.cols }

// Types lists the column type names, parallel to Columns.
func (rs *RowStream) Types() []string { return rs.types }

// Schema describes the rows Next returns (the zero schema for a stream
// that answers with a plan rendering).
func (rs *RowStream) Schema() schema.Schema { return rs.sch }

// Plan holds the plan rendering for EXPLAIN/ANALYZE-style statements
// (empty for row-producing statements).
func (rs *RowStream) Plan() string { return rs.plan }

// CacheHit reports whether the plan came out of the plan cache.
func (rs *RowStream) CacheHit() bool { return rs.cacheHit }

// Next returns the next batch of tuples; an empty batch signals
// exhaustion. The batch is only valid until the following Next or Close
// (the executor's ownership contract). Errors — cancellations,
// timeouts, budget aborts and recovered panics, each counted into its
// own server metric — are terminal. A source without a native row pull
// (the coordinator's merged worker batches) is materialized here.
func (rs *RowStream) Next() (batch []tuple.Tuple, err error) {
	defer rs.recoverPull(&err)
	rows, ok := rs.src.(rowSource)
	if !ok {
		b, err := rs.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		rs.rows = b.Materialize(rs.rows[:0])
		return rs.rows, nil
	}
	if rs.done {
		return nil, nil
	}
	batch, err = rows.Next()
	return batch, rs.pulled(len(batch), len(batch) == 0, err)
}

// NextBatch is the columnar pull: the next batch with at least one
// selected row, or nil at exhaustion, under Next's ownership and error
// contract. A columnar plan root is served straight off its ColIterator
// — nothing is materialized between the executor and the caller — and
// a stream is pulled with either Next or NextBatch, never both.
func (rs *RowStream) NextBatch() (b *colbatch.Batch, err error) {
	defer rs.recoverPull(&err)
	for b == nil || b.NumRows() == 0 {
		if rs.src == nil || rs.done {
			return nil, nil
		}
		b, err = rs.src.NextBatch()
		if err = rs.pulled(0, b == nil, err); err != nil || b == nil {
			return nil, err
		}
	}
	rs.s.rowsStreamed.Add(uint64(b.NumRows()))
	return b, nil
}

// pulled does the bookkeeping both pulls share: a failed pull fails the
// stream, an exhausted one closes it, anything else counts its rows.
func (rs *RowStream) pulled(rows int, exhausted bool, err error) error {
	switch {
	case err != nil:
		rs.fail(err)
	case exhausted:
		rs.Close()
	default:
		rs.s.rowsStreamed.Add(uint64(rows))
	}
	return err
}

// recoverPull keeps a panic in the stream layer itself (the executor
// guards every operator, but batch bridging and instrumentation hooks
// run here) from crashing the process.
func (rs *RowStream) recoverPull(err *error) {
	if rerr := exec.Recovered("server.RowStream", recover()); rerr != nil {
		*err = rerr
		rs.fail(rerr)
	}
}

// fail records a terminal error (classified once per stream) and tears
// the execution down.
func (rs *RowStream) fail(err error) {
	if !rs.counted {
		rs.counted = true
		rs.s.countFailure(err)
	}
	rs.Close()
}

// hangUp ends a running stream whose peer went away mid-answer. The
// connection's context is cancelled as well, but a write can fail before
// the executor next checks it; either way the client aborted the query,
// so it counts as one cancellation. A stream already exhausted or failed
// is left as it is.
func (rs *RowStream) hangUp() {
	if rs.src != nil && !rs.done {
		rs.fail(context.Canceled)
	}
}

// Close tears the execution down, releases its admission-gate unit and
// cancels its per-query deadline context; it is idempotent and safe to
// call mid-stream (the pipeline stops without draining).
func (rs *RowStream) Close() error {
	if rs.done {
		return nil
	}
	rs.done = true
	var err error
	if rs.src != nil {
		err = rs.src.Close()
		rs.s.gate.Release()
	}
	if rs.cancel != nil {
		rs.cancel()
		rs.cancel = nil
	}
	return err
}

// countFailure classifies a terminal query error into the server's
// failure counters: every failure counts as an error, and the
// resilience outcomes — cancellation, deadline expiry, budget abort,
// recovered panic — additionally count into their own metric.
func (s *Server) countFailure(err error) {
	s.errors.Add(1)
	var pe *exec.PanicError
	var be *exec.BudgetError
	switch {
	case errors.As(err, &pe):
		s.panics.Add(1)
	case errors.As(err, &be):
		s.resourceAborts.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
		s.cancels.Add(1)
	}
}

// StreamBatch executes ad-hoc SQL (stmtName == "") or a session's named
// prepared statement as an incremental row stream under ctx: admission
// waits on the gate honor the context, and every operator in the built
// pipeline checks it between batches, so cancelling ctx (a disconnected
// client, a deadline) aborts the query server-side. batch is a
// per-request batch-size override (batch <= 0 keeps the server's
// configured batch size); the override participates in the plan-cache
// key through the flags fingerprint. The returned RowStream must be
// Closed.
//
// The query lifecycle seams live here: a draining server refuses new
// work with the code "unavailable", the server's per-query deadline is
// armed around the whole execution (gate wait included), and a panic
// anywhere in the planning path is recovered into a structured internal
// error rather than crashing the process.
func (s *Server) StreamBatch(ctx context.Context, sessionID, stmtName, sql string, params []value.Value, batch int) (*RowStream, error) {
	return s.streamBatch(ctx, sessionID, stmtName, sql, params, batch, fragment{})
}

// fragment is what a coordinator's query frame adds to a worker's
// statement: the cut of its plan to answer and the staged relations to
// read in place of tables (sqlish.Cut; wire.Frame).
type fragment struct {
	cut   sqlish.Cut
	subst map[string]string
}

// streamBatch is StreamBatch for a statement that may be a fragment.
func (s *Server) streamBatch(ctx context.Context, sessionID, stmtName, sql string, params []value.Value, batch int, frag fragment) (*RowStream, error) {
	s.queries.Add(1)
	if s.Draining() {
		err := errDraining()
		s.countFailure(err)
		return nil, err
	}
	cancel := func() {}
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	rs, err := s.stream(ctx, sessionID, stmtName, sql, params, batch, frag)
	if err != nil {
		cancel()
		s.countFailure(err)
		return nil, err
	}
	if rs.src != nil {
		// Row-producing streams own the deadline context until Close; the
		// plan-frame shapes (EXPLAIN, ANALYZE) are already done.
		rs.cancel = cancel
	} else {
		cancel()
	}
	return rs, nil
}

// stream is StreamBatch's statement path, behind the server-level panic
// boundary.
func (s *Server) stream(ctx context.Context, sessionID, stmtName, sql string, params []value.Value, batch int, frag fragment) (_ *RowStream, err error) {
	defer exec.RecoverAsError("server.stream", &err)
	if err := faultinject.Hit("server.stream"); err != nil {
		return nil, err
	}
	var st *sqlish.Statement
	switch {
	case stmtName != "" && sql != "":
		return nil, fmt.Errorf("server: request must set either sql or stmt, not both")
	case stmtName != "":
		// The statement was parsed and lifted at Prepare time (and an
		// ANALYZE can never be prepared): its shape key goes straight to
		// the plan cache, a coordinator's included.
		var lerr error
		if st, lerr = s.sess.get(sessionID).stmt(stmtName); lerr != nil {
			return nil, lerr
		}
		if s.dist != nil {
			if rs, handled, derr := s.distStream(ctx, st, params, batch); handled {
				return rs, derr
			}
		}
	case strings.TrimSpace(sql) != "":
		// One lex and one parse of the ORIGINAL text yield the parse check
		// (so syntax errors point at the client's statement, not at a
		// normalized form), the AST a plan-cache miss prepares, the
		// plan-cache key and the lifted literals a hit binds.
		var perr error
		if st, perr = sqlish.ParseLifted(sql); perr != nil {
			return nil, perr
		}
		// The distributed seam sees every statement first — ANALYZE, CREATE
		// and DROP included, since on a coordinator they must broadcast or
		// partition rather than act locally. A declined statement (one that
		// reads no sharded table, or any other) falls through to the local
		// pipeline.
		if s.dist != nil {
			if rs, handled, derr := s.distStream(ctx, st, params, batch); handled {
				return rs, derr
			}
		}
		// ANALYZE mutates catalog statistics instead of planning a query;
		// it bypasses the plan cache entirely but still pays one unit of
		// the admission gate — its full-table scan is real work that must
		// queue with the rest of the traffic.
		if name, ok := st.AnalyzeTarget(); ok {
			if gerr := s.gate.AcquireCtx(ctx); gerr != nil {
				return nil, gerr
			}
			defer s.gate.Release()
			t, aerr := s.Analyze(name)
			if aerr != nil {
				return nil, aerr
			}
			return &RowStream{s: s, plan: fmt.Sprintf("ANALYZE %s: %d rows, %d columns", name, t.Rows, len(t.Cols))}, nil
		}
		// CREATE TABLE and DROP TABLE mutate the catalog (and the data
		// directory when a store is attached); like ANALYZE they bypass
		// the plan cache but pay one admission-gate unit — the CSV load
		// and segment writes are real work.
		if name, path, ok := st.CreateTarget(); ok {
			if gerr := s.gate.AcquireCtx(ctx); gerr != nil {
				return nil, gerr
			}
			defer s.gate.Release()
			rel, cerr := s.CreateTable(name, path)
			if cerr != nil {
				return nil, cerr
			}
			return &RowStream{s: s, plan: fmt.Sprintf("CREATE TABLE %s: %d rows, %d columns", name, rel.Len(), rel.Schema.Len())}, nil
		}
		if name, ok := st.DropTarget(); ok {
			if gerr := s.gate.AcquireCtx(ctx); gerr != nil {
				return nil, gerr
			}
			defer s.gate.Release()
			if derr := s.DropTable(name); derr != nil {
				return nil, derr
			}
			return &RowStream{s: s, plan: "DROP TABLE " + name}, nil
		}
	default:
		return nil, fmt.Errorf("server: request has neither sql nor stmt")
	}
	// A hit binds the caller's parameters and the statement's lifted
	// literals into the shape's plan: no analyze, no optimize.
	prep, hit, err := s.plan(st, batch, frag.subst)
	if err == nil && frag.cut != sqlish.CutWhole {
		prep, err = prep.Cut(frag.cut)
	}
	if err != nil {
		return nil, err
	}
	if prep.IsExplainAnalyze() {
		// EXPLAIN ANALYZE executes the statement, so it goes through the
		// admission gate like any other execution.
		if gerr := s.gate.AcquireCtx(ctx); gerr != nil {
			return nil, gerr
		}
		defer s.gate.Release()
		text, eerr := prep.ExplainAnalyzeContext(ctx, params...)
		if eerr != nil {
			return nil, eerr
		}
		return &RowStream{s: s, plan: text, cacheHit: hit}, nil
	}
	if prep.IsExplain() {
		return &RowStream{s: s, plan: prep.Explain(), cacheHit: hit}, nil
	}
	// The claim is held until the stream is closed — an open cursor IS
	// in-flight work.
	if gerr := s.gate.AcquireCtx(ctx); gerr != nil {
		return nil, gerr
	}
	var bud *exec.Budget
	if s.maxRows > 0 || s.maxBytes > 0 {
		bud = exec.NewBudget(s.maxRows, s.maxBytes)
	}
	cur, err := prep.StreamFor(ctx, bud, st, params)
	if err != nil {
		s.gate.Release()
		return nil, err
	}
	if cur.Reused() {
		s.pipelinesReused.Add(1)
	} else {
		s.pipelinesBuilt.Add(1)
	}
	cols, types := prep.Columns(params...)
	return &RowStream{
		cols:     cols,
		types:    types,
		cacheHit: hit,
		s:        s,
		src:      cur,
		sch:      cur.Schema(),
	}, nil
}
