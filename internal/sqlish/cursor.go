package sqlish

import (
	"context"
	"fmt"
	"runtime"

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
// consumer uses one of the two for the cursor's whole life. NextBatch
// serves the pipeline's batches untouched and Next materializes them, so
// which pull the consumer picks never changes what executes.
//
// The cursor borrows its pipeline from the Prepared: Close hands a
// re-openable one back for the statement's next execution, but only after
// a clean end — exhaustion, or a Close before it; one that ended in an
// error (cancellation, budget abort, recovered panic, injected fault) is
// left to the collector. So no batch may be used after Close.
//
// A Cursor is single-use and not safe for concurrent use; Close is
// idempotent and must be called (it releases operator state).
type Cursor struct {
	cit    exec.ColIterator
	rows   *exec.Materialize // over cit, from the first Next
	pl     *pipeline         // what cit goes back to its Prepared as; nil when single-use
	reused bool
	sch    schema.Schema
	opened bool
	closed bool
	err    error
}

// pipeline is one built executor tree of a Prepared with the
// state its executions rebind (parameter frame, context, budget).
type pipeline struct {
	owner *Prepared
	ec    *plan.ExecCtx
	cit   exec.ColIterator // nil until built, and for good when the tree is single-use
}

// checkout takes an idle pipeline, or makes the empty shell of a new one.
func (p *Prepared) checkout() (pl *pipeline, reused bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		pl, p.idle = p.idle[n-1], p.idle[:n-1]
		return pl, true
	}
	return &pipeline{owner: p, ec: plan.NewExecCtx(make([]value.Value, p.NumParams+len(p.lifted))...)}, false
}

// checkin keeps pl for the next execution, disarmed and unbound; beyond
// one pipeline per processor, the number that can run at once, it is
// dropped.
func (p *Prepared) checkin(pl *pipeline) {
	pl.ec.Arm(nil, nil)
	clear(pl.ec.Rebinds)
	pl.ec.Rebinds = pl.ec.Rebinds[:0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < runtime.GOMAXPROCS(0) {
		p.idle = append(p.idle, pl)
	}
}

// Stream runs the Execute stage incrementally: it binds params to $1..$N
// in an executor tree of the plan — one an earlier execution left idle, or
// a new one — arms it with ctx and returns a cursor over its batches.
// EXPLAIN statements cannot be streamed (use Explain); an ANALYZE
// statement never reaches Prepare in the first place.
func (p *Prepared) Stream(ctx context.Context, params ...value.Value) (*Cursor, error) {
	return p.stream(ctx, nil, params, p.lifted, nil)
}

// StreamFor is Stream for st under a resource budget. Every operator of
// the built tree charges its output batches against budget, and
// exhausting it aborts the execution with a structured *exec.BudgetError
// (a nil budget streams unbounded). st is a statement of the plan's shape
// (the same ShapeKey under ParseLifted — the plan caches guarantee it):
// params bind the caller's $1..$N and st's own lifted literals bind the
// hidden slots, so st's rows come back whichever statement the plan was
// prepared from. rebinds bind relations of Deps to the ones of their
// schema this execution scans in their place (a worker's staged shards).
func (p *Prepared) StreamFor(ctx context.Context, budget *exec.Budget, st *Statement, params []value.Value, rebinds exec.Rebinds) (*Cursor, error) {
	if len(st.lifted) != len(p.lifted) {
		return nil, fmt.Errorf("sqlish: statement with %d lifted literal(s) executed on a plan with %d", len(st.lifted), len(p.lifted))
	}
	return p.stream(ctx, budget, params, st.lifted, rebinds)
}

// stream starts one execution over the caller's params, the given
// lifted values and rebound relations. There is one path: they are
// written into a pipeline's frame and its guards armed, the tree is built
// if the pipeline has none yet (its placeholders bound to the frame), and
// the cursor's first pull opens it — a plan's first execution and its
// thousandth run the same Open.
func (p *Prepared) stream(ctx context.Context, budget *exec.Budget, params, lifted []value.Value, rebinds exec.Rebinds) (*Cursor, error) {
	if p.explain {
		return nil, requestError("cannot Stream an EXPLAIN statement")
	}
	if _, err := bindArgs(p.NumParams, params, nil); err != nil { // the count; the values go into the frame
		return nil, err
	}
	pl, reused := p.checkout()
	n := copy(pl.ec.Params, params)
	copy(pl.ec.Params[n:], lifted)
	pl.ec.Rebinds = append(pl.ec.Rebinds, rebinds...)
	pl.ec.Arm(ctx, budget)
	c := &Cursor{cit: pl.cit, reused: reused, sch: p.root.Schema()}
	if c.cit == nil {
		var err error
		if c.cit, err = plan.BuildRoot(p.root, pl.ec); err != nil {
			return nil, err
		}
	}
	if pl.ec.Reusable() {
		pl.cit, c.pl = c.cit, pl
	}
	return c, nil
}

// Schema describes the cursor's output tuples' nontemporal attributes.
func (c *Cursor) Schema() schema.Schema { return c.sch }

// Next returns the next batch of tuples; an empty batch signals
// exhaustion. The batch follows the executor's ownership contract: it is
// valid only until the following Next or Close call, so consumers that
// keep tuples must copy them out. After an error (including context
// cancellation) the cursor is done and Next keeps returning that error.
func (c *Cursor) Next() ([]tuple.Tuple, error) {
	if c.rows == nil {
		c.rows = exec.NewMaterialize(c.cit)
	}
	if !c.ready() {
		return nil, c.err
	}
	b, err := c.rows.Next()
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
	if !c.ready() {
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
func (c *Cursor) ready() bool {
	if c.err != nil || c.closed {
		return false
	}
	if !c.opened {
		c.opened = true
		if err := c.cit.Open(); err != nil {
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
// exhaustion stops the pipeline early — upstream operators are torn down
// without draining. A re-openable
// pipeline that ended cleanly goes back to its Prepared.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// A tree that was never opened is closed all the same: operators may
	// hold resources from build time.
	c.opened = true
	err := c.cit.Close()
	if c.pl != nil && c.err == nil && err == nil {
		c.pl.owner.checkin(c.pl)
	}
	return err
}

// Reused reports whether the execution re-opened a pipeline an earlier
// execution of the statement built, rather than building one.
func (c *Cursor) Reused() bool { return c.reused }

// Err returns the error that terminated the cursor, if any.
func (c *Cursor) Err() error { return c.err }
