package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"talign/internal/schema"
	"talign/internal/tuple"
)

// faultyIter panics or errors on demand at each Iterator call.
type faultyIter struct {
	sch        schema.Schema
	openPanic  any
	nextPanic  any
	closePanic any
	batches    [][]tuple.Tuple
	pos        int
	closed     bool
}

func (f *faultyIter) Schema() schema.Schema { return f.sch }

func (f *faultyIter) Open() error {
	if f.openPanic != nil {
		panic(f.openPanic)
	}
	return nil
}

func (f *faultyIter) Next() ([]tuple.Tuple, error) {
	if f.nextPanic != nil {
		panic(f.nextPanic)
	}
	if f.pos >= len(f.batches) {
		return nil, nil
	}
	b := f.batches[f.pos]
	f.pos++
	return b, nil
}

func (f *faultyIter) Close() error {
	f.closed = true
	if f.closePanic != nil {
		panic(f.closePanic)
	}
	return nil
}

func rowsOf(n int) [][]tuple.Tuple {
	var out [][]tuple.Tuple
	for i := 0; i < n; i++ {
		out = append(out, []tuple.Tuple{{}})
	}
	return out
}

// armed returns a guard state armed for one execution.
func armed(ctx context.Context, budget *Budget) *GuardState {
	gs := new(GuardState)
	gs.Arm(ctx, budget)
	return gs
}

// TestGuardRecoversPanics proves a panic at any Iterator call surfaces as
// a structured *PanicError instead of crashing, and that the recovery
// counter advances.
func TestGuardRecoversPanics(t *testing.T) {
	for _, call := range []string{"open", "next", "close"} {
		f := &faultyIter{}
		switch call {
		case "open":
			f.openPanic = "boom"
		case "next":
			f.nextPanic = "boom"
		case "close":
			f.closePanic = "boom"
		}
		g := NewGuard(armed(context.Background(), nil), f)
		before := PanicsRecovered()

		var err error
		switch call {
		case "open":
			err = g.Open()
		case "next":
			_, err = g.Next()
		case "close":
			err = g.Close()
		}

		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: got %v, want *PanicError", call, err)
		}
		if pe.Val != "boom" || !strings.Contains(pe.Error(), "internal error") {
			t.Fatalf("%s: bad PanicError: %v", call, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("%s: PanicError has no stack", call)
		}
		if PanicsRecovered() != before+1 {
			t.Fatalf("%s: PanicsRecovered did not advance", call)
		}
	}
}

// TestGuardCancellation proves a cancelled context aborts Open and Next
// with the context's error.
func TestGuardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGuard(armed(ctx, nil), &faultyIter{batches: rowsOf(3)})
	if err := g.Open(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open under cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, err := g.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestGuardBudget proves the row budget trips with a structured
// *BudgetError once cumulative output exceeds the cap, and stays
// tripped.
func TestGuardBudget(t *testing.T) {
	bud := NewBudget(2, 0)
	g := NewGuard(armed(nil, bud), &faultyIter{batches: rowsOf(5)})
	if err := g.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		_, err = g.Next()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Resource != "rows" || be.Limit != 2 {
		t.Fatalf("bad BudgetError: %+v", be)
	}
	if _, err2 := g.Next(); !errors.As(err2, &be) {
		t.Fatalf("tripped budget did not stay tripped: %v", err2)
	}
}

// TestGuardByteBudget proves the byte budget trips on wide batches even
// when the row count stays small.
func TestGuardByteBudget(t *testing.T) {
	bud := NewBudget(0, 10)
	g := NewGuard(armed(nil, bud), &faultyIter{batches: rowsOf(2)})
	_ = g.Open()
	var err error
	for i := 0; i < 2 && err == nil; i++ {
		_, err = g.Next()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Resource != "bytes" {
		t.Fatalf("bad resource: %+v", be)
	}
}

// TestExchangeWorkerPanicIsolated proves a panic inside an exchange
// fragment goroutine surfaces as a structured error from the consuming
// side and still closes the fragment.
func TestExchangeWorkerPanicIsolated(t *testing.T) {
	frag := &faultyIter{nextPanic: "fragment boom"}
	ex, err := NewExchange([]Iterator{frag})
	if err != nil {
		t.Fatalf("NewExchange: %v", err)
	}
	if err := ex.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	for err == nil {
		var b []tuple.Tuple
		b, err = ex.Next()
		if err == nil && len(b) == 0 {
			break
		}
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError from fragment goroutine", err)
	}
	// Close propagates the stored fragment error; it must be the same
	// structured error, never a fresh panic.
	if cerr := ex.Close(); cerr != nil && !errors.As(cerr, &pe) {
		t.Fatalf("Close: %v", cerr)
	}
	if !frag.closed {
		t.Fatal("fragment iterator was not closed after its panic")
	}
}
