package exec

import (
	"fmt"
	"sync/atomic"
)

// budgetAborts counts, process-wide, how many executions a resource
// budget has aborted; the server's /metrics endpoint exposes it next to
// the cancellation counter.
var budgetAborts atomic.Uint64

// BudgetAborts reports how many budget aborts have happened process-wide
// since start.
func BudgetAborts() uint64 { return budgetAborts.Load() }

// Budget is one query's cooperative resource budget: a cap on the total
// tuples and (approximate) bytes that may cross operator boundaries
// during the execution. Every guarded operator charges its output batch,
// so the counters measure the work and transient memory of the whole
// tree — intermediate blow-ups (a runaway group construction, a cross
// product feeding a sort) trip the budget long before the final result
// would. Charging happens at batch granularity through atomic counters.
//
// A nil *Budget, or a Budget with zero limits, never aborts anything.
type Budget struct {
	// MaxRows caps the cumulative tuples crossing operator boundaries
	// (0 = unlimited).
	MaxRows int64
	// MaxBytes caps the cumulative approximate batch bytes crossing
	// operator boundaries (0 = unlimited).
	MaxBytes int64

	rows    atomic.Int64
	bytes   atomic.Int64
	tripped atomic.Bool
}

// NewBudget returns a budget with the given limits; both zero means a
// budget that never trips (callers usually pass nil instead).
func NewBudget(maxRows, maxBytes int64) *Budget {
	return &Budget{MaxRows: maxRows, MaxBytes: maxBytes}
}

// Rows reports the tuples charged so far.
func (b *Budget) Rows() int64 { return b.rows.Load() }

// Bytes reports the approximate bytes charged so far.
func (b *Budget) Bytes() int64 { return b.bytes.Load() }

// chargeRows accounts one batch — n rows of approximately size bytes — and
// reports the structured abort error once a limit is exceeded. The size is
// deliberately cheap (no string walking): budgets bound runaway work, they
// are not an allocator. Only the first trip is counted into the
// process-wide instrumentation (every guard of the tree will observe the
// same exhausted budget as it unwinds).
func (b *Budget) chargeRows(n int, size int64) error {
	if b == nil || n == 0 {
		return nil
	}
	rows := b.rows.Add(int64(n))
	bytes := b.bytes.Add(size)
	switch {
	case b.MaxRows > 0 && rows > b.MaxRows:
		return b.trip("rows", rows, b.MaxRows)
	case b.MaxBytes > 0 && bytes > b.MaxBytes:
		return b.trip("bytes", bytes, b.MaxBytes)
	}
	return nil
}

// trip builds the abort error, counting the first one per budget.
func (b *Budget) trip(resource string, used, limit int64) error {
	if b.tripped.CompareAndSwap(false, true) {
		budgetAborts.Add(1)
	}
	return &BudgetError{Resource: resource, Used: used, Limit: limit}
}

// BudgetError is the structured resource-abort error: the server maps it
// to the wire code "resource".
type BudgetError struct {
	// Resource names the exhausted limit ("rows" or "bytes").
	Resource string
	// Used and Limit are the charged total and the configured cap.
	Used, Limit int64
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: resource budget exceeded: %s %d > limit %d", e.Resource, e.Used, e.Limit)
}
