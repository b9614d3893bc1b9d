package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/faultinject"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// partitions builds a splitter over in and returns its partition streams.
func partitions(t *testing.T, in ColIterator, keys []expr.Expr, dop, batch int) []ColIterator {
	t.Helper()
	sp, err := NewColSplitter(in, keys, dop, maphash.MakeSeed())
	if err != nil {
		t.Fatal(err)
	}
	if batch > 0 {
		sp.SetBatchSize(batch)
	}
	frags := make([]ColIterator, dop)
	for i := range frags {
		frags[i] = sp.Partition(i)
	}
	return frags
}

// noLeak fails the test if goroutines started since the call are still
// running shortly after it ends.
func noLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines running, %d before the test", n, before)
		}
	})
}

// TestSplitterExchangeRoundTrip: splitting a stream into DOP partitions and
// merging them back must be a permutation of the input, for several DOPs
// and batch sizes, under whole-row, column and computed partition keys.
func TestSplitterExchangeRoundTrip(t *testing.T) {
	noLeak(t)
	rng := rand.New(rand.NewSource(11))
	cfg := randrel.DefaultConfig(schema.Attr{Name: "x", Type: value.KindString}, schema.Attr{Name: "v", Type: value.KindInt})
	cfg.MaxTuples = 200
	cfg.TimeMax = 64
	cfg.Alphabet = 6
	rel := randrel.Generate(rng, cfg)
	for ki, keys := range [][]expr.Expr{
		nil, // whole row
		{expr.ColIdx{Idx: 0, Typ: value.KindString}},
		{expr.Mod(expr.Add(expr.ColIdx{Idx: 1, Typ: value.KindInt}, expr.TStart{}), expr.Int(3))},
	} {
		for _, dop := range []int{1, 2, 3, 7} {
			for _, batch := range []int{1, 3, 0} {
				name := fmt.Sprintf("keys=%d/dop=%d/batch=%d", ki, dop, batch)
				got := collect(t, must(NewColExchange(partitions(t, NewColScan(rel), keys, dop, batch))))
				if !relation.SetEqual(rel, got) {
					a, b := relation.Diff(rel, got)
					t.Fatalf("%s: round trip lost tuples\nonly in: %v\nonly out: %v", name, a, b)
				}
				if got.Len() != rel.Len() {
					t.Fatalf("%s: %d tuples in, %d out", name, rel.Len(), got.Len())
				}
			}
		}
	}
}

// TestExchangeErrorPropagation: a fragment that fails — with an error from
// its input, an injected fault in the worker loop, a key expression that
// does not evaluate in the splitter, a panic — surfaces its error at the
// merge side, structured, cancels the siblings without deadlocking, and is
// still closed.
func TestExchangeErrorPropagation(t *testing.T) {
	noLeak(t)
	defer faultinject.Reset()
	rel := limitRel(t, 5000)
	bad := expr.Call("ABS", expr.Str("x"))
	for name, mk := range map[string]func() (frag ColIterator, check func(error) bool){
		"input error": func() (ColIterator, func(error) bool) {
			return NewColFilter(NewColScan(rel), expr.Eq(bad, expr.Int(1))), func(err error) bool { return err != nil && err.Error() == "expr: ABS of string" }
		},
		"worker fault": func() (ColIterator, func(error) bool) {
			faultinject.Arm("exec.exchange.worker", faultinject.Fault{Kind: faultinject.KindError, After: 2})
			return NewColScan(rel), func(err error) bool { return err != nil }
		},
		"splitter key error": func() (ColIterator, func(error) bool) {
			return partitions(t, NewColScan(rel), []expr.Expr{bad}, 1, 0)[0], func(err error) bool { return err != nil && err.Error() == "expr: ABS of string" }
		},
		"fragment panic": func() (ColIterator, func(error) bool) {
			return &faultyIter{nextPanic: "fragment boom"}, func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }
		},
		"fragment budget": func() (ColIterator, func(error) bool) {
			return NewColGuard(armed(nil, NewBudget(100, 0)), NewColScan(rel)), func(err error) bool { var be *BudgetError; return errors.As(err, &be) }
		},
		"fragment cancelled": func() (ColIterator, func(error) bool) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return NewColGuard(armed(ctx, nil), NewColScan(rel)), func(err error) bool { return errors.Is(err, context.Canceled) }
		},
	} {
		frag, check := mk()
		sibling := &closeTracker{ColIterator: ApplyColBatch(NewColScan(rel), 16)}
		failing := &closeTracker{ColIterator: frag}
		ex := must(NewColExchange([]ColIterator{failing, sibling}))
		_, err := Collect(ex)
		faultinject.Reset()
		if !check(err) {
			t.Fatalf("%s: the exchange reported %v", name, err)
		}
		// Close propagates the stored error; never a fresh panic.
		if cerr := ex.Close(); cerr != nil && !check(cerr) {
			t.Fatalf("%s: Close: %v", name, cerr)
		}
		if !failing.closed || !sibling.closed {
			t.Fatalf("%s: fragments closed: failing %v, sibling %v", name, failing.closed, sibling.closed)
		}
	}
}

// TestExchangeEarlyClose: abandoning an exchange mid-stream must unblock
// the splitter producer and the workers (the test would hang otherwise).
func TestExchangeEarlyClose(t *testing.T) {
	noLeak(t)
	ex := must(NewColExchange(partitions(t, NewColScan(limitRel(t, 50_000)), nil, 3, 16)))
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.NextCol(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
}

// TestExchangeRecyclesBatches: the consumer owns a batch until its next
// pull — a selection it installs must not leak into what the worker copies
// next — and the batch it gives back is what a worker fills again.
func TestExchangeRecyclesBatches(t *testing.T) {
	rel := limitRel(t, 4000)
	ex := must(NewColExchange([]ColIterator{ApplyColBatch(NewColScan(rel), 100)}))
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	seen, rows := map[*colbatch.Batch]bool{}, 0
	for {
		b, err := ex.NextCol()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		seen[b] = true
		rows += b.NumRows()
		b.Sel = []int32{} // what a filter above would do
	}
	if rows != rel.Len() || len(seen) > chanDepth+2 {
		t.Fatalf("%d rows (want %d) in %d distinct batches (want the few in flight, recycled)", rows, rel.Len(), len(seen))
	}
}

// closeTracker records whether Close was called.
type closeTracker struct {
	ColIterator
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return c.ColIterator.Close()
}

// TestSplitterAbandonedBeforeOpen: closing every partition of a splitter
// whose producer never launched (the plan-build error path) must close the
// source iterator and let the drain goroutines exit instead of leaking.
func TestSplitterAbandonedBeforeOpen(t *testing.T) {
	noLeak(t)
	src := &closeTracker{ColIterator: NewColScan(limitRel(t, 1))}
	parts := partitions(t, src, nil, 3, 0)
	// Never Open any partition — simulate ExchangeNode.Build failing after
	// splitter construction — then close them all.
	for _, p := range parts {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !src.closed {
		t.Fatal("source iterator not closed after all partitions released")
	}
	// The channels must be closed so the drain goroutines exit and a
	// stray NextCol reports exhaustion rather than blocking.
	if b, err := parts[0].NextCol(); err != nil || b != nil {
		t.Fatalf("abandoned partition NextCol = (%v, %v), want exhaustion", b, err)
	}
}
