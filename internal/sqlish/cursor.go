package sqlish

import (
	"context"
	"fmt"

	"talign/internal/colbatch"
	"talign/internal/exec"
	"talign/internal/plan"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Cursor is an incremental result stream over one execution of a Prepared
// statement: it pulls batches straight out of the batch executor instead
// of materializing the result relation, which is what the public talign
// package's Rows and the server's wire-level row streaming are built on.
// The execution's context is armed into every operator, so cancelling it
// aborts the pipeline cooperatively between batches; reaching a LIMIT
// stops the pipeline without draining it.
//
// A cursor pulls rows (Next) or columnar batches (NextBatch); one
// consumer uses one of the two for the cursor's whole life. A plan whose
// root runs vectorized is built once, as a columnar pipeline: NextBatch
// serves its batches untouched and Next materializes them, so which pull
// the consumer picks never changes what executes. A row root serves Next
// natively and bridges NextBatch with exec.NewToCol.
//
// A Cursor is single-use and not safe for concurrent use; Close is
// idempotent and must be called (it tears down exchange workers and
// releases operator state).
type Cursor struct {
	// Exactly one of it and cit is set by Stream; the first pull on the
	// other side fills it in as a bridge over the built one.
	it     exec.Iterator
	cit    exec.ColIterator
	sch    schema.Schema
	opened bool
	closed bool
	err    error
}

// Stream runs the Execute stage incrementally: it binds params to $1..$N,
// builds a fresh executor tree under ctx and returns a cursor over its
// batches. EXPLAIN statements cannot be streamed (use Explain); an
// ANALYZE statement never reaches Prepare in the first place.
func (p *Prepared) Stream(ctx context.Context, params ...value.Value) (*Cursor, error) {
	return p.StreamBudget(ctx, nil, params...)
}

// StreamBudget is Stream under a resource budget: every operator of the
// built tree charges its output batches against budget, and exhausting
// it aborts the execution with a structured *exec.BudgetError. A nil
// budget streams unbounded.
func (p *Prepared) StreamBudget(ctx context.Context, budget *exec.Budget, params ...value.Value) (*Cursor, error) {
	return p.stream(ctx, budget, params, p.lifted)
}

// StreamFor is StreamBudget for st, a statement of the plan's shape (the
// same ShapeKey under ParseLifted — the plan caches guarantee it): params
// bind the caller's $1..$N and st's own lifted literals bind the hidden
// slots, so st's rows come back whichever statement the plan was prepared
// from.
func (p *Prepared) StreamFor(ctx context.Context, budget *exec.Budget, st *Statement, params []value.Value) (*Cursor, error) {
	if len(st.lifted) != len(p.lifted) {
		return nil, fmt.Errorf("sqlish: statement with %d lifted literal(s) executed on a plan with %d", len(st.lifted), len(p.lifted))
	}
	return p.stream(ctx, budget, params, st.lifted)
}

// stream builds and opens one execution over the caller's params and the
// given lifted values.
func (p *Prepared) stream(ctx context.Context, budget *exec.Budget, params, lifted []value.Value) (*Cursor, error) {
	if p.explain {
		return nil, requestError("cannot Stream an EXPLAIN statement")
	}
	args, err := bindArgs(p.NumParams, params, lifted)
	if err != nil {
		return nil, err
	}
	ec := plan.NewExecCtxContext(ctx, args...)
	ec.Budget = budget
	cit, ok, err := plan.BuildColRoot(p.root, ec)
	if err != nil {
		return nil, err
	}
	if ok {
		return &Cursor{cit: cit, sch: p.root.Schema()}, nil
	}
	it, err := p.root.Build(ec)
	if err != nil {
		return nil, err
	}
	return &Cursor{it: it, sch: p.root.Schema()}, nil
}

// Schema describes the cursor's output tuples' nontemporal attributes.
func (c *Cursor) Schema() schema.Schema { return c.sch }

// Next returns the next batch of tuples; an empty batch signals
// exhaustion. The batch follows the executor's ownership contract: it is
// valid only until the following Next or Close call, so consumers that
// keep tuples must copy them out. After an error (including context
// cancellation) the cursor is done and Next keeps returning that error.
func (c *Cursor) Next() ([]tuple.Tuple, error) {
	if c.it == nil {
		c.it = exec.NewMaterialize(c.cit)
	}
	if !c.ready(c.it.Open) {
		return nil, c.err
	}
	b, err := c.it.Next()
	if err != nil || len(b) == 0 {
		c.finish(err)
		return nil, err
	}
	return b, nil
}

// NextBatch is Next on the columnar side: it returns the next batch, or
// nil at exhaustion. The batch is valid only until the following
// NextBatch or Close, and may carry a selection vector (even an empty
// one — keep pulling).
func (c *Cursor) NextBatch() (*colbatch.Batch, error) {
	if c.cit == nil {
		c.cit = exec.NewToCol(c.it)
	}
	if !c.ready(c.cit.Open) {
		return nil, c.err
	}
	b, err := c.cit.NextCol()
	if err != nil || b == nil {
		c.finish(err)
		return nil, err
	}
	return b, nil
}

// ready reports whether the cursor can be pulled, opening the tree on
// the first pull.
func (c *Cursor) ready(open func() error) bool {
	if c.err != nil || c.closed {
		return false
	}
	if !c.opened {
		c.opened = true
		if err := open(); err != nil {
			c.finish(err)
			return false
		}
	}
	return true
}

// finish ends the cursor at exhaustion (err == nil) or on its terminal
// error.
func (c *Cursor) finish(err error) {
	c.err = err
	c.Close()
}

// Close releases the execution's resources (idempotent). Closing before
// exhaustion stops the pipeline early — upstream operators, exchange
// workers included, are torn down without draining.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// A tree that was never opened is closed all the same: operators may
	// hold resources from build time. The bridge, when there is one,
	// closes what it wraps.
	c.opened = true
	if c.it != nil {
		return c.it.Close()
	}
	return c.cit.Close()
}

// Err returns the error that terminated the cursor, if any.
func (c *Cursor) Err() error { return c.err }
