package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/schema"
)

// panicsRecovered counts, process-wide, how many panics the executor's
// recovery boundaries have converted into errors instead of letting them
// kill the process. Tests and /metrics read it to prove crash isolation.
var panicsRecovered atomic.Uint64

// PanicsRecovered reports how many executor panics have been recovered
// process-wide since start.
func PanicsRecovered() uint64 { return panicsRecovered.Load() }

// cancelObserved counts, process-wide, how many guards observed a
// cancelled context and aborted: tests and /metrics use it to prove that
// cancellation stopped the executor cooperatively instead of the query
// running to completion and the result being thrown away.
var cancelObserved atomic.Uint64

// CancelObserved reports how many operator-level cancellation aborts have
// happened process-wide since start.
func CancelObserved() uint64 { return cancelObserved.Load() }

// PanicError is a recovered operator panic, rendered as a structured
// runtime error: the query that contained it fails with the wire code
// "internal", the process — and every concurrent query — keeps running.
// The stack is captured at recovery time for server-side diagnostics.
type PanicError struct {
	// Site names where the panic was recovered (an operator type or a
	// goroutine boundary).
	Site string
	// Val is the recovered panic value.
	Val any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: internal error: panic in %s: %v", e.Site, e.Val)
}

// Recovered converts a recover() result into a *PanicError; a nil r
// (no panic in flight) returns nil. Every conversion counts into the
// process-wide PanicsRecovered instrumentation.
func Recovered(site string, r any) error {
	if r == nil {
		return nil
	}
	panicsRecovered.Add(1)
	return &PanicError{Site: site, Val: r, Stack: debug.Stack()}
}

// RecoverAsError is the defer helper for goroutine and call boundaries:
//
//	defer exec.RecoverAsError("site", &err)
//
// converts an in-flight panic into a *PanicError assigned to *errp
// (existing errors are not overwritten by a nil recovery).
func RecoverAsError(site string, errp *error) {
	if err := Recovered(site, recover()); err != nil {
		*errp = err
	}
}

// GuardState is what every guard of one built pipeline shares: the running
// execution's context and budget, and whether its cancellation was counted
// yet. The guards are built around it once; each
// execution re-arms it (Arm) before Open, never while one is running.
type GuardState struct {
	ctx     context.Context
	budget  *Budget
	tripped atomic.Bool
}

// Arm points the guards at one execution: a nil (or never-cancellable) ctx
// skips the cancellation check, a nil budget skips charging; Arm(nil, nil)
// lets go of a finished execution's.
func (g *GuardState) Arm(ctx context.Context, budget *Budget) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	g.ctx, g.budget = ctx, budget
	g.tripped.Store(false)
}

// check returns the context's error once it is done, counting the first
// observation into the process-wide instrumentation counter.
func (g *GuardState) check() error {
	if g.ctx == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		if g.tripped.CompareAndSwap(false, true) {
			cancelObserved.Add(1)
		}
		return err
	}
	return nil
}

// OpStats is what one plan node's operator did during an analyzed execution
// (EXPLAIN ANALYZE): the selected rows that left it and the batches they
// left in.
type OpStats struct {
	Rows, Batches atomic.Int64
	// ColFusedAdjust executions that built / shared their group index.
	IndexBuilt, IndexShared atomic.Int64
}

// ColGuard is the resilience boundary of a pipeline, placed where a whole
// subtree runs inside one call: around a plan root, whose consumer pulls
// batches straight off the pipeline, and around the input of an operator
// that drains it inside a single Open or NextCol. One wrapper does three
// jobs, all at batch granularity:
//
//   - panic isolation: a panic in the wrapped operator (or anything beneath
//     it on the same goroutine) is recovered and converted into a
//     structured *PanicError, so a poisoned expression or a corrupted batch
//     tears down the query, not the process;
//   - cooperative cancellation: once the execution's context is cancelled
//     or past its deadline, Open/NextCol abort with the context error
//     (counted once per execution into CancelObserved);
//   - resource budgeting: every output batch is charged against the
//     execution's shared Budget, and an exhausted budget aborts with a
//     structured *BudgetError.
//
// It also carries the exec.open / exec.next fault sites, and — in an
// analyzed execution, which guards every node's operator — counts what
// passes into the node's OpStats. A query runs on its consumer's goroutine,
// so the root's ColGuard makes all of it panic-isolated.
type ColGuard struct {
	// Input is the wrapped columnar operator.
	Input ColIterator
	// Stats, when set, counts the batches and selected rows leaving Input.
	Stats *OpStats
	*GuardState
}

// NewColGuard wraps in with the boundary armed through gs; panic recovery
// is unconditional.
func NewColGuard(gs *GuardState, in ColIterator) *ColGuard {
	return &ColGuard{Input: in, GuardState: gs}
}

// Schema implements ColIterator.
func (g *ColGuard) Schema() schema.Schema { return g.Input.Schema() }

// Open implements ColIterator.
func (g *ColGuard) Open() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(g.site(), r)
		}
	}()
	if err := g.check(); err != nil {
		return err
	}
	if err := faultinject.Hit("exec.open"); err != nil {
		return err
	}
	return g.Input.Open()
}

// NextCol implements ColIterator, charging the batch's selected rows: a
// fixed cost per row (valid time + header) plus a fixed cost per value.
func (g *ColGuard) NextCol() (*colbatch.Batch, error) { return g.pass(g.Input.NextCol) }

// image implements imager when the input does: the whole image passes the
// boundary as one batch, checked, counted and charged as the batches it
// stands for would have been.
func (g *ColGuard) image() (*colbatch.Batch, error) {
	return g.pass(func() (*colbatch.Batch, error) { return imageOf(g.Input) })
}

// pass runs next behind the panic boundary, the cancellation check and the
// exec.next fault site, then counts and charges the batch it returns.
func (g *ColGuard) pass(next func() (*colbatch.Batch, error)) (b *colbatch.Batch, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, err = nil, Recovered(g.site(), r)
		}
	}()
	if err := g.check(); err != nil {
		return nil, err
	}
	if err := faultinject.Hit("exec.next"); err != nil {
		return nil, err
	}
	if b, err = next(); err != nil || b == nil {
		return nil, err
	}
	n := b.NumRows()
	if g.Stats != nil {
		g.Stats.Rows.Add(int64(n))
		g.Stats.Batches.Add(1)
	}
	if err := g.budget.chargeRows(n, int64(n)*24*int64(1+len(b.Cols))); err != nil {
		return nil, err
	}
	return b, nil
}

// Close implements ColIterator.
func (g *ColGuard) Close() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(g.site(), r)
		}
	}()
	return g.Input.Close()
}

func (g *ColGuard) site() string { return fmt.Sprintf("%T", g.Input) }
