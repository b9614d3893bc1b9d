package plan

import (
	"context"
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

	// Instrument, when set, wraps every operator a Build produces (after
	// batch sizing) and is how EXPLAIN ANALYZE attaches its row counters.
	// It must be set before Build and be safe for the node identity it is
	// given; executions without instrumentation leave it nil and pay
	// nothing.
	Instrument func(n Node, it exec.Iterator) exec.Iterator

	// SegObserver, when set, receives each pruning-eligible scan's
	// segment outcome as it is built: how many segments will be read
	// and how many the zone maps pruned. EXPLAIN ANALYZE uses it to
	// annotate scan nodes; executions without it pay nothing.
	SegObserver func(n Node, scanned, pruned int)

	guard     exec.GuardState
	singleUse bool // set while building: something in the pipeline cannot be re-opened

	mu     sync.Mutex
	shared map[*SharedNode]*relation.Relation
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

// Arm points every guard of the pipeline (exec.Guard, exec.ColGuard) at one
// execution. Cancelling a cancellable ctx — or passing its deadline —
// aborts the whole executor tree between batches, exchange fragments
// included; a nil ctx (or context.Background()) skips the check. budget,
// when set, is charged every guarded operator's output batches (atomically:
// one Budget serves all fragments), and exhausting it aborts the query with
// a *exec.BudgetError (wire code "resource"). Arm(nil, nil) lets go.
func (c *ExecCtx) Arm(ctx context.Context, budget *exec.Budget) { c.guard.Arm(ctx, budget) }

// Reusable reports whether the pipeline built under c may be opened again
// after Close. False once the build put in something that cannot be yet: a
// row subtree behind an exec.ToCol bridge (exchanges are row-built, so
// this covers DOP > 1) or a scan of a SharedNode's per-execution memo.
// Instrumented builds and row roots never yield a columnar root to keep.
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

// instrument finalizes a freshly built operator: it first arms the
// resilience boundary (exec.Guard: panic recovery at every operator
// call, the context's cooperative cancellation check, and resource
// budget charging — which is what makes cancellation and crash
// isolation reach even inside exchange fragments), then applies the
// Instrument hook. A nil ExecCtx passes the operator through untouched
// (direct Build calls in benchmarks pay nothing).
func (c *ExecCtx) instrument(n Node, it exec.Iterator) exec.Iterator {
	if c == nil {
		return it
	}
	it = exec.NewGuard(&c.guard, it)
	if c.Instrument == nil {
		return it
	}
	return c.Instrument(n, it)
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
