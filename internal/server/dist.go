package server

import (
	"context"

	"talign/internal/colbatch"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
)

// BatchSource is the pull contract a RowStream drains: columnar batches
// until a nil batch, then Close. A sqlish.Cursor is the local
// implementation (it also serves rows natively, which RowStream.Next
// uses); the distsql coordinator's merged worker stream is the
// distributed one.
type BatchSource interface {
	// NextBatch returns the next batch, valid until the following call;
	// nil signals exhaustion and errors are terminal.
	NextBatch() (*colbatch.Batch, error)
	// Close tears the source down; it must be idempotent.
	Close() error
}

// rowSource is the optional native row pull of a BatchSource: one that
// has it (a sqlish.Cursor) serves RowStream.Next without a detour
// through columnar batches.
type rowSource interface {
	Next() ([]tuple.Tuple, error)
}

// DistResult is a distributor's answer for one handled statement:
// either a plan rendering (EXPLAIN-style shapes, catalog mutations) or a
// row source with its schema.
type DistResult struct {
	// Cols and Types are the wire schema (visible attributes then the
	// valid-time bounds), parallel to SchemaColumns.
	Cols  []string
	Types []string
	// Schema is the visible-attribute schema (RowStream.Schema).
	Schema schema.Schema
	// Plan is the plan/acknowledgement text when the statement produces
	// no rows; Src must be nil then.
	Plan string
	// CacheHit reports whether the distributed plan came from the
	// distributor's plan cache.
	CacheHit bool
	// Src streams the merged result batches (nil for Plan results).
	Src BatchSource
}

// DistMetric is one distributor counter or gauge surfaced through the
// server's /metrics endpoint.
type DistMetric struct {
	// Name is the full metric name (talignd_... by convention).
	Name string
	// Help is the HELP line text.
	Help string
	// Gauge selects the gauge type; counters are the default.
	Gauge bool
	// Value is the current reading.
	Value uint64
}

// Distributor is the seam the distsql coordinator plugs into: when set
// (SetDistributor), every statement is offered to it after parsing and
// before local planning. A distributor that declines (handled=false)
// leaves the statement to the local pipeline — that is how statements
// over local or unknown tables keep working unchanged on a coordinator.
type Distributor interface {
	// DistStream plans and launches one statement. The statement arrives
	// parsed and lifted (sqlish.ParseLifted: its ShapeKey is the
	// distributed-plan cache key text, its ShapeSQL the text every
	// fragment runs, its Args the values of that text's placeholders) with
	// the caller's bound parameters. The returned source must honor ctx.
	DistStream(ctx context.Context, st *sqlish.Statement, params []value.Value, batch int) (*DistResult, bool, error)
	// DistExplain renders the distributed plan for EXPLAIN (the GET
	// /explain path, which never executes).
	DistExplain(st *sqlish.Statement) (string, bool, error)
	// DistMetrics lists the distributor's counters for /metrics.
	DistMetrics() []DistMetric
}

// SetDistributor installs the distributed-execution seam (nil uninstalls
// it). Install before serving traffic; the seam itself is read without
// synchronization on the hot path.
func (s *Server) SetDistributor(d Distributor) { s.dist = d }

// Distributor returns the installed seam (nil when single-node).
func (s *Server) Distributor() Distributor { return s.dist }

// distStream offers one parsed statement to the distributor. It claims
// one admission-gate unit for the whole distributed execution — the
// coordinator's own fan-out work — before planning, releasing it on
// error, on plan-only results, or at stream Close.
func (s *Server) distStream(ctx context.Context, st *sqlish.Statement, params []value.Value, batch int) (*RowStream, bool, error) {
	if gerr := s.gate.AcquireCtx(ctx); gerr != nil {
		return nil, true, gerr
	}
	res, handled, err := s.dist.DistStream(ctx, st, params, batch)
	if !handled {
		s.gate.Release()
		return nil, false, nil
	}
	if err != nil {
		s.gate.Release()
		return nil, true, err
	}
	if res.Src == nil {
		s.gate.Release()
		return &RowStream{s: s, plan: res.Plan, cacheHit: res.CacheHit}, true, nil
	}
	return &RowStream{
		cols:     res.Cols,
		types:    res.Types,
		sch:      res.Schema,
		cacheHit: res.CacheHit,
		s:        s,
		src:      res.Src,
	}, true, nil
}
