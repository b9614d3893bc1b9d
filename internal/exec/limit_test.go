package exec

import (
	"testing"

	"talign/internal/colbatch"
	"talign/internal/relation"
)

// pullCounter counts how many batches and rows its child was asked to
// produce — the probe for the early-exit contract.
type pullCounter struct {
	ColIterator
	nexts int
	rows  int
}

func (p *pullCounter) NextCol() (*colbatch.Batch, error) {
	b, err := p.ColIterator.NextCol()
	p.nexts++
	if b != nil {
		p.rows += b.NumRows()
	}
	return b, err
}

// limitRel builds an n-row single-column relation with v = 0..n-1.
func limitRel(t *testing.T, n int) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("v int")
	for i := 0; i < n; i++ {
		b.Row(int64(i), int64(i)+1, int64(i))
	}
	return b.MustBuild()
}

// TestLimitEarlyExit is the regression test for the cursor-stop contract:
// once the limit is reached, upstream operators observe the stop — the
// child is never pulled again, so a LIMIT 10 over a 100k-row scan reads
// one batch, not the whole table.
func TestLimitEarlyExit(t *testing.T) {
	probe := &pullCounter{ColIterator: ApplyColBatch(NewColScan(limitRel(t, 100000)), 64)}
	out := collect(t, must(NewColLimit(probe, 10, 0)))
	if out.Len() != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", out.Len())
	}
	if probe.nexts != 1 || probe.rows != 64 {
		t.Fatalf("upstream pulled %d batches / %d rows; early exit should stop after 1 batch of 64", probe.nexts, probe.rows)
	}
}

// TestLimitOffset checks LIMIT/OFFSET row selection, and that a negative
// OFFSET does not build.
func TestLimitOffset(t *testing.T) {
	rel := limitRel(t, 1000)
	for _, tc := range []struct {
		n, off      int64
		first, rows int64
	}{
		{10, 0, 0, 10},
		{10, 25, 25, 10},
		{-1, 990, 990, 10}, // OFFSET without LIMIT
		{0, 0, -1, 0},      // LIMIT 0: no pulls needed at all
		{2000, 500, 500, 500},
	} {
		out := collect(t, must(NewColLimit(ApplyColBatch(NewColScan(rel), 16), tc.n, tc.off)))
		if int64(out.Len()) != tc.rows {
			t.Fatalf("LIMIT %d OFFSET %d: %d rows, want %d", tc.n, tc.off, out.Len(), tc.rows)
		}
		if tc.rows > 0 && out.Tuples[0].Vals[0].Int() != tc.first {
			t.Fatalf("LIMIT %d OFFSET %d: first row %v, want %d", tc.n, tc.off, out.Tuples[0].Vals[0], tc.first)
		}
	}
	if _, err := NewColLimit(NewColScan(rel), 1, -1); err == nil {
		t.Fatal("OFFSET -1 built")
	}
}

// TestLimitZeroPullsNothing: LIMIT 0 must not touch the child at all.
func TestLimitZeroPullsNothing(t *testing.T) {
	probe := &pullCounter{ColIterator: NewColScan(limitRel(t, 100))}
	if out := collect(t, must(NewColLimit(probe, 0, 0))); out.Len() != 0 || probe.nexts != 0 {
		t.Fatalf("LIMIT 0: %d rows, %d child pulls; want 0 and 0", out.Len(), probe.nexts)
	}
}
