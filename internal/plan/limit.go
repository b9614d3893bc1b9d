package plan

import (
	"fmt"
	"math"

	"talign/internal/exec"
	"talign/internal/schema"
	"talign/internal/stats"
)

// LimitNode caps the result at N rows after skipping Offset rows. Its
// executor counterpart exits early: once the limit is reached it stops
// pulling from its child entirely, so a cursor over LIMIT k reads O(k)
// batches instead of draining the pipeline. N < 0 means no limit (OFFSET
// alone).
type LimitNode struct {
	Input  Node
	N      int64
	Offset int64

	stats memoStats
}

// Limit builds a LIMIT/OFFSET node; n < 0 means unlimited.
func (p *Planner) Limit(input Node, n, offset int64) *LimitNode {
	return &LimitNode{Input: input, N: n, Offset: offset}
}

func (l *LimitNode) Schema() schema.Schema { return l.Input.Schema() }
func (l *LimitNode) Children() []Node      { return []Node{l.Input} }

// Rows caps the input estimate at the limit (after the offset).
func (l *LimitNode) Rows() float64 {
	in := math.Max(0, l.Input.Rows()-float64(l.Offset))
	if l.N >= 0 {
		in = math.Min(in, float64(l.N))
	}
	return in
}

// Stats scales the input's statistics down to the capped cardinality.
func (l *LimitNode) Stats() *stats.Table {
	if t, ok := l.stats.load(); ok {
		return t
	}
	in := NodeStats(l.Input)
	if in == nil {
		return l.stats.store(nil)
	}
	return l.stats.store(&stats.Table{Rows: int64(l.Rows()), Cols: in.Cols, T: in.T})
}

// Build caps the stream counting selected rows (not physical batch rows).
func (l *LimitNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.stream(l.Input)
	if err != nil {
		return nil, err
	}
	lim, err := exec.NewColLimit(in, l.N, l.Offset)
	if err != nil {
		return nil, err
	}
	return lim, nil
}

func (l *LimitNode) Label() string {
	switch {
	case l.N >= 0 && l.Offset > 0:
		return fmt.Sprintf("Limit %d offset %d", l.N, l.Offset)
	case l.N >= 0:
		return fmt.Sprintf("Limit %d", l.N)
	default:
		return fmt.Sprintf("Offset %d", l.Offset)
	}
}
