package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/tuple"
)

// faultyIter panics on demand at each ColIterator call and otherwise
// serves n one-row batches.
type faultyIter struct {
	openPanic  any
	nextPanic  any
	closePanic any
	n          int
	pos        int
	closed     bool
	out        colbatch.Batch
}

func (f *faultyIter) Schema() schema.Schema { return schema.Schema{} }

func (f *faultyIter) Open() error {
	if f.openPanic != nil {
		panic(f.openPanic)
	}
	return nil
}

func (f *faultyIter) NextCol() (*colbatch.Batch, error) {
	if f.nextPanic != nil {
		panic(f.nextPanic)
	}
	if f.pos >= f.n {
		return nil, nil
	}
	f.pos++
	f.out.ResetSchema(schema.Schema{})
	f.out.AppendTuple(tuple.Tuple{})
	return &f.out, nil
}

func (f *faultyIter) Close() error {
	f.closed = true
	if f.closePanic != nil {
		panic(f.closePanic)
	}
	return nil
}

// armed returns a guard state armed for one execution.
func armed(ctx context.Context, budget *Budget) *GuardState {
	gs := new(GuardState)
	gs.Arm(ctx, budget)
	return gs
}

// TestGuardRecoversPanics proves a panic at any ColIterator call surfaces
// as a structured *PanicError instead of crashing, and that the recovery
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
		g := NewColGuard(armed(context.Background(), nil), f)
		before := PanicsRecovered()

		var err error
		switch call {
		case "open":
			err = g.Open()
		case "next":
			_, err = g.NextCol()
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

// TestGuardCancellation proves a cancelled context aborts Open and NextCol
// with the context's error.
func TestGuardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewColGuard(armed(ctx, nil), &faultyIter{n: 3})
	if err := g.Open(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open under cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, err := g.NextCol(); !errors.Is(err, context.Canceled) {
		t.Fatalf("NextCol under cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestGuardBudget proves the row budget trips with a structured
// *BudgetError once cumulative output exceeds the cap, and stays tripped;
// a guard with stats attached has counted what it let through.
func TestGuardBudget(t *testing.T) {
	bud := NewBudget(2, 0)
	g := NewColGuard(armed(nil, bud), &faultyIter{n: 5})
	g.Stats = new(OpStats)
	if err := g.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		_, err = g.NextCol()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Resource != "rows" || be.Limit != 2 {
		t.Fatalf("bad BudgetError: %+v", be)
	}
	if _, err2 := g.NextCol(); !errors.As(err2, &be) {
		t.Fatalf("tripped budget did not stay tripped: %v", err2)
	}
	if rows, batches := g.Stats.Rows.Load(), g.Stats.Batches.Load(); rows != 4 || batches != 4 {
		t.Fatalf("stats read %d rows in %d batches, want the 4 one-row batches pulled", rows, batches)
	}
}

// TestGuardByteBudget proves the byte budget trips on wide batches even
// when the row count stays small.
func TestGuardByteBudget(t *testing.T) {
	bud := NewBudget(0, 10)
	g := NewColGuard(armed(nil, bud), &faultyIter{n: 2})
	_ = g.Open()
	var err error
	for i := 0; i < 2 && err == nil; i++ {
		_, err = g.NextCol()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Resource != "bytes" {
		t.Fatalf("bad resource: %+v", be)
	}
}

// TestDrainingOpenSurfacesGuardErrors: the operators that drain an input
// inside Open — the sort, the join's build side — pass on what the
// input's guard reports (a cancelled context, an exhausted budget, a
// recovered panic) as it is, and close cleanly afterwards.
func TestDrainingOpenSurfacesGuardErrors(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var pe *PanicError
	var be *BudgetError
	for name, c := range map[string]struct {
		in    func() ColIterator
		check func(error) bool
	}{
		"cancelled": {func() ColIterator { return NewColGuard(armed(cancelled, nil), &faultyIter{n: 3}) }, func(err error) bool { return errors.Is(err, context.Canceled) }},
		"budget":    {func() ColIterator { return NewColGuard(armed(nil, NewBudget(2, 0)), &faultyIter{n: 5}) }, func(err error) bool { return errors.As(err, &be) }},
		"panic":     {func() ColIterator { return NewColGuard(armed(nil, nil), &faultyIter{nextPanic: "boom"}) }, func(err error) bool { return errors.As(err, &pe) }},
	} {
		join := NewColHashJoin(&faultyIter{n: 2}, c.in(), []expr.EquiPair{{Left: expr.TStart{}, Right: expr.TStart{}}}, nil, InnerJoin, false)
		for _, op := range []ColIterator{NewColSort(c.in(), SortKey{Expr: expr.TStart{}}), join} {
			if err := op.Open(); !c.check(err) {
				t.Errorf("%s: %T.Open = %v", name, op, err)
			}
			if err := op.Close(); err != nil {
				t.Errorf("%s: %T.Close = %v", name, op, err)
			}
		}
	}
}
