package plan

import (
	"context"
	"math"
	"sync"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/value"
)

// ExecCtx is the rebindable state of one built pipeline, handed down
// through Build and kept by whoever keeps the pipeline: the parameter
// frame its expressions read, the guard state its operators' resilience
// boundaries check, and the materialization memo for SharedNode subtrees.
// Plans themselves stay immutable — a prepared plan can be Built
// concurrently, each build with its own ExecCtx — which is what makes the
// server's plan cache safe to share. A pipeline that runs again (Reusable)
// runs under the same ExecCtx: its owner overwrites Params' elements and
// calls Arm between two executions, never during one.
type ExecCtx struct {
	// Params is the frame of values bound to $1..$N, in order. Build binds
	// every placeholder to its element (expr.BindParams), so the slice is
	// fixed once a Build has seen it: rebind by assigning elements.
	Params []value.Value

	// SegObserver, when set, receives each pruning-eligible scan's
	// segment outcome as it is built: how many segments will be read
	// and how many the zone maps pruned. EXPLAIN ANALYZE uses it to
	// annotate scan nodes; executions without it pay nothing.
	SegObserver func(n Node, scanned, pruned int)

	guard     exec.GuardState
	singleUse bool // set while building: something in the pipeline cannot be re-opened

	mu     sync.Mutex
	shared map[*SharedNode]*relation.Relation
	// stats, when non-nil, makes the build an analyzed one (EXPLAIN ANALYZE):
	// every node's operator is guarded and counts into the node's entry.
	stats map[Node]*exec.OpStats
}

// NewExecCtx returns an execution context binding params to $1..$N.
func NewExecCtx(params ...value.Value) *ExecCtx {
	return &ExecCtx{Params: params}
}

// NewExecCtxContext returns an execution context carrying ctx for
// cooperative cancellation and binding params to $1..$N.
func NewExecCtxContext(ctx context.Context, params ...value.Value) *ExecCtx {
	c := NewExecCtx(params...)
	c.Arm(ctx, nil)
	return c
}

// Arm points every guard of the pipeline (exec.ColGuard) at one
// execution. Cancelling a cancellable ctx — or passing its deadline —
// aborts the whole executor tree between batches; a nil ctx (or
// context.Background()) skips the check. budget, when set, is charged
// every guarded operator's output batches, and exhausting it aborts the
// query with a *exec.BudgetError (wire code "resource"). Arm(nil, nil)
// lets go.
func (c *ExecCtx) Arm(ctx context.Context, budget *exec.Budget) { c.guard.Arm(ctx, budget) }

// Reusable reports whether the pipeline built under c may be opened again
// after Close. False once the build put in something that cannot be yet: a
// scan of a SharedNode's per-execution memo.
func (c *ExecCtx) Reusable() bool { return !c.singleUse }

// bind ties e's placeholders to the pipeline's parameter frame. A nil
// context (or a context without parameters) returns e unchanged, so plans
// built outside the prepared-statement path pay nothing.
func (c *ExecCtx) bind(e expr.Expr) expr.Expr {
	if c == nil || len(c.Params) == 0 {
		return e
	}
	return expr.BindParams(e, c.Params)
}

// bindAll is bind over a slice; the input slice is never mutated (the plan
// owns it and stays immutable).
func (c *ExecCtx) bindAll(es []expr.Expr) []expr.Expr {
	if c == nil || len(c.Params) == 0 || len(es) == 0 {
		return es
	}
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = c.bind(e)
	}
	return out
}

// BuildRoot builds n as the root of a pull: the pipeline behind the panic,
// cancellation and budget boundary, for a consumer that ships its batches
// or materializes them (exec.Materialize, exec.Collect). It is built to be
// opened again and again: what a build reads from ctx — parameter frame,
// guard state — is bound by reference, so the owner runs the next execution
// by rewriting those and calling Open, as long as ctx.Reusable().
func BuildRoot(n Node, ctx *ExecCtx) (exec.ColIterator, error) {
	it, err := ctx.stream(n)
	if err != nil || ctx == nil {
		return it, err
	}
	return ctx.guarded(it), nil
}

// stream builds n as the input of an operator that passes batches on as
// they come (filter, project, limit, the streamed side of a set
// operation): no boundary of its own. An analyzed build guards
// every node's operator, counting what leaves it; an ordinary one places
// guards only where a subtree runs inside one call (input, BuildRoot).
func (c *ExecCtx) stream(n Node) (exec.ColIterator, error) {
	it, err := n.Build(c)
	if err != nil || c == nil || c.stats == nil {
		return it, err
	}
	g := exec.NewColGuard(&c.guard, it)
	g.Stats = c.statsFor(n)
	return g, nil
}

// input builds n as the input of an operator that drains it inside one Open
// or NextCol call (join, adjust, aggregate, sort, absorb, the right side of
// a set operation), behind the boundary that lets a
// deadline stop a build over a runaway join: exec.ColGuard's cancellation
// check, budget charge and panic isolation per batch — or once, for an
// image the operator takes over whole. A bare scan is exempt: it cannot
// run away.
func (c *ExecCtx) input(n Node) (exec.ColIterator, error) {
	it, err := c.stream(n)
	if _, bare := it.(*exec.ColScan); err != nil || c == nil || bare {
		return it, err
	}
	return c.guarded(it), nil
}

// guarded wraps it in the resilience boundary unless it is one already (an
// analyzed build's).
func (c *ExecCtx) guarded(it exec.ColIterator) exec.ColIterator {
	if g, ok := it.(*exec.ColGuard); ok {
		return g
	}
	return exec.NewColGuard(&c.guard, it)
}

// statsFor returns n's entry of an analyzed build, creating it on first use.
func (c *ExecCtx) statsFor(n Node) *exec.OpStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats[n]
	if st == nil {
		st = new(exec.OpStats)
		c.stats[n] = st
	}
	return st
}

// rowHint is n's estimated cardinality as a presize hint for the operator
// that will hold n's rows (the executor clamps it further).
func rowHint(n Node) int {
	return int(math.Min(math.Max(n.Rows(), 0), 1<<30))
}

// sharedGet returns the memoized materialization of n for this execution,
// computing it with fn on first use. With a nil receiver there is no memo
// and fn runs every time.
func (c *ExecCtx) sharedGet(n *SharedNode, fn func() (*relation.Relation, error)) (*relation.Relation, error) {
	if c == nil {
		return fn()
	}
	c.mu.Lock()
	if rel, ok := c.shared[n]; ok {
		c.mu.Unlock()
		return rel, nil
	}
	c.mu.Unlock()
	rel, err := fn()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.shared == nil {
		c.shared = make(map[*SharedNode]*relation.Relation)
	}
	if prev, ok := c.shared[n]; ok {
		rel = prev // another builder of the same ctx won the race
	} else {
		c.shared[n] = rel
	}
	c.mu.Unlock()
	return rel, nil
}
