package plan

import (
	"context"
	"sync"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/value"
)

// ExecCtx carries one execution's runtime state down through Build: the
// bound parameter values for $N placeholders and the per-execution
// materialization memo for SharedNode subtrees. Plans themselves stay
// immutable — a prepared plan can be Built concurrently by many goroutines,
// each with its own ExecCtx — which is what makes the server's plan cache
// safe to share.
type ExecCtx struct {
	// Params are the values bound to $1..$N, in order.
	Params []value.Value

	// Ctx is the execution's context.Context. When it is cancellable,
	// every operator a Build produces gains a cooperative per-batch
	// cancellation check (exec.Guard), so cancelling the context — or
	// passing its deadline — promptly aborts the whole executor tree,
	// including the fragment operators driven by exchange worker
	// goroutines. A nil Ctx (or context.Background()) skips the check.
	Ctx context.Context

	// Budget, when set, is the execution's shared resource budget: every
	// guarded operator charges its output batches against it, and an
	// exhausted budget aborts the query with a structured
	// *exec.BudgetError (wire code "resource"). One Budget serves every
	// fragment of a parallel plan — the counters are atomic.
	Budget *exec.Budget

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
	return &ExecCtx{Ctx: ctx, Params: params}
}

// bind substitutes this execution's parameter values into e. A nil context
// (or a context without parameters) returns e unchanged, so plans built
// outside the prepared-statement path pay nothing.
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
	it = exec.NewGuard(c.Ctx, c.Budget, it)
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
