package exec

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// imageBytes is the whole image as bytes: every physical row's key, values
// then valid time.
func imageBytes(b *colbatch.Batch) []byte {
	var out []byte
	for row := 0; row < b.Len(); row++ {
		out = b.AppendRowKey(out, row)
	}
	return out
}

// shuffle projects (v, TS, k) of r(k, v, f), keeping T: a projection that
// only moves column headers.
func shuffle(in ColIterator) *ColProject {
	cols := []expr.Expr{expr.CI(1, value.KindInt), expr.TStart{}, expr.CI(0, value.KindInt)}
	out := schema.MustNew(
		schema.Attr{Name: "v", Type: value.KindInt},
		schema.Attr{Name: "ts", Type: value.KindInt},
		schema.Attr{Name: "k", Type: value.KindInt})
	return NewColProject(in, cols, out, TKeep, nil)
}

// projectedScan is ColGuard(ColProject(ColScan)), the input the planner
// builds for a projected build side: the scanned relation's image passes
// through it as a header.
func projectedScan(gs *GuardState, rel *relation.Relation) *ColGuard {
	sc := NewColScan(rel)
	sc.SetBatchSize(3)
	return NewColGuard(gs, shuffle(sc))
}

// TestHandOverOwnership: a relation collected from a projected scan holds
// a header of its own over the scanned relation's image. Collecting again
// and again — Close, re-Open — leaves every earlier result and the scanned
// image byte for byte as they were, although each Close clears the
// projection's reused header.
func TestHandOverOwnership(t *testing.T) {
	rel, _ := reopenInputs(7, 40)
	if rel.Len() < 10 {
		t.Fatalf("%d rows is not a meaningful input", rel.Len())
	}
	img := rel.Columnar()
	before := imageBytes(img)
	g := projectedScan(new(GuardState), rel)
	g.Stats = new(OpStats)

	// A filter in between offers no image: the reference is a copy.
	want, err := CollectColumnar(shuffle(NewColFilter(NewColScan(rel), expr.Bool(true))))
	if err != nil {
		t.Fatal(err)
	}
	var got []*relation.Relation
	for i := 0; i < 4; i++ {
		c, err := CollectColumnar(g)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	for i, c := range got {
		if !bytes.Equal(imageBytes(c.Columnar()), imageBytes(want.Columnar())) {
			t.Fatalf("collection %d changed after later executions:\ngot  %v\nwant %v", i, c, want)
		}
	}
	if !bytes.Equal(imageBytes(img), before) || img != rel.Columnar() {
		t.Fatal("the scanned relation's image changed")
	}
	if n := g.Stats.Rows.Load(); n != 4*int64(rel.Len()) {
		t.Fatalf("the guard counted %d rows over 4 hand-overs of %d", n, rel.Len())
	}
}

// TestHandOverCancellation: a context cancelled after Open stops the
// hand-over at the guard: the drain returns the context's error, and no
// row is counted or charged.
func TestHandOverCancellation(t *testing.T) {
	rel, _ := reopenInputs(7, 40)
	ctx, cancel := context.WithCancel(context.Background())
	budget := NewBudget(0, 0)
	g := projectedScan(armed(ctx, budget), rel)
	g.Stats = new(OpStats)
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	cancel()
	var own colbatch.Batch
	if _, err := drainColumnar(g, 0, &own); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain under a cancelled context: %v, want context.Canceled", err)
	}
	if rows := g.Stats.Rows.Load(); rows != 0 || budget.Rows() != 0 {
		t.Fatalf("%d rows counted and %d charged before the cancellation surfaced", rows, budget.Rows())
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHandOverPanics: a panic at the hand-over (the exec.next fault site
// the guard passes there, as for every batch) surfaces as a *PanicError.
func TestHandOverPanics(t *testing.T) {
	defer faultinject.Reset()
	rel, _ := reopenInputs(7, 40)
	g := projectedScan(new(GuardState), rel)
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm("exec.next", faultinject.Fault{Kind: faultinject.KindPanic})
	var own colbatch.Batch
	var pe *PanicError
	if _, err := drainColumnar(g, 0, &own); !errors.As(err, &pe) {
		t.Fatalf("panic at the hand-over surfaced as %v", err)
	}
	g.Close()
}

// TestHandOverOnlyForShuffles: a projection that computes, or retimes, has
// no image to offer; its input is drained into the caller's store.
func TestHandOverOnlyForShuffles(t *testing.T) {
	rel, _ := reopenInputs(7, 40)
	k := expr.CI(0, value.KindInt)
	out := schema.MustNew(schema.Attr{Name: "k", Type: value.KindInt})
	for name, p := range map[string]*ColProject{
		"computed": NewColProject(NewColScan(rel), []expr.Expr{expr.Add(k, expr.Int(1))}, out, TKeep, nil),
		"retimed":  NewColProject(NewColScan(rel), []expr.Expr{k}, out, TFromExpr, expr.Call("PERIOD", expr.TStart{}, expr.TEnd{})),
	} {
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		if img, err := imageOf(p); img != nil || err != nil {
			t.Errorf("%s projection offered an image (%v)", name, err)
		}
		p.Close()
	}
}
