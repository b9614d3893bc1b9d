package plan

import (
	"fmt"
	"math"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/stats"
)

// AdjustmentNode is the logical node of the two temporal primitives,
// r Φ_θ s and N_B(r; s): group construction (Sec. 6.1/6.3) and the plane
// sweep (Sec. 6.2, Fig. 10) as one operator, exec.ColFusedAdjust, that
// never materializes concatenated join rows. Every θ finds its groups in
// start-ordered runs, one per equi key (the Sec. 8 interval index).
type AdjustmentNode struct {
	Left, Right Node
	Mode        exec.AdjustMode
	Keys        []expr.EquiPair
	Residual    expr.Expr

	out   schema.Schema
	rows  float64
	stats memoStats
	batch int
}

// FusedAlign builds the fused aligner for r Φ_θ s (modes align or gaps).
// theta is bound against Concat(r, s) and may be nil.
func (p *Planner) FusedAlign(r, s Node, theta expr.Expr, mode exec.AdjustMode) *AdjustmentNode {
	var keys []expr.EquiPair
	var residual expr.Expr
	if theta != nil {
		keys, residual = expr.SplitJoinCondition(theta, r.Schema().Len())
	}
	return p.FusedAdjustFrom(r, s, mode, keys, residual)
}

// FusedNormalize builds the fused splitter N_B(r; s): keys equate r's
// grouping attributes with s's, and every matching s row splits r's rows
// at its own Ts and Te.
func (p *Planner) FusedNormalize(r, s Node, keys []expr.EquiPair) *AdjustmentNode {
	return p.FusedAdjustFrom(r, s, exec.ModeNormalize, keys, nil)
}

// FusedAdjustFrom builds the node from its decomposed parts. The
// optimizer uses it to rebuild a node over rewritten inputs after pushing
// predicates below it.
func (p *Planner) FusedAdjustFrom(l, r Node, mode exec.AdjustMode, keys []expr.EquiPair, residual expr.Expr) *AdjustmentNode {
	n := &AdjustmentNode{
		Left: l, Right: r, Mode: mode,
		Keys: keys, Residual: residual,
		out: l.Schema(), batch: p.Flags.BatchSize,
	}
	n.rows = n.estimateRows()
	return n
}

func (n *AdjustmentNode) Schema() schema.Schema { return n.out }
func (n *AdjustmentNode) Children() []Node      { return []Node{n.Left, n.Right} }
func (n *AdjustmentNode) Rows() float64         { return n.rows }

// estimateRows follows the paper's estimates (Sec. 6.2/6.3): alignment emits ~3
// rows per group-join row, normalization ~2, with the group join scaled
// by its key selectivity like JoinNode. With interval statistics on both
// inputs the group join is additionally scaled by the overlap fraction —
// group construction only pairs tuples whose valid times overlap, which
// is exactly what the overlap profile estimates. Normalization's group
// join is the paper's, with the split points π_{B,Ts}(s) ∪ π_{B,Te}(s):
// two per group row, and no statistics of their own.
func (n *AdjustmentNode) estimateRows() float64 {
	lr, rr := math.Max(n.Left.Rows(), 1), math.Max(n.Right.Rows(), 1)
	ls, rs := NodeStats(n.Left), NodeStats(n.Right)
	if n.Mode == exec.ModeNormalize {
		rr, rs = math.Max(2*n.Right.Rows(), 1), nil
	}
	f, hasOverlap := stats.OverlapFrac(ls, rs)
	sel := RangeSelectivity
	switch {
	case len(n.Keys) > 0:
		// Equi keys dominate; alignment's group join additionally keeps
		// only overlapping pairs, which the overlap profile quantifies.
		sel = joinSelectivity(expr.Bool(true), n.Keys, ls, rs)
		if n.Mode != exec.ModeNormalize && hasOverlap {
			sel *= f
		}
	case n.Mode != exec.ModeNormalize && hasOverlap:
		// Keyless θ: the group join is exactly the overlap join.
		sel = f
	}
	sel = clampSel(sel, lr*rr)
	joinRows := math.Max(lr*rr*sel, lr) // left outer: at least one row per left tuple
	if n.Mode == exec.ModeNormalize {
		return 2 * joinRows
	}
	return 3 * joinRows
}

// Stats reports the left input's column statistics at the adjusted
// cardinality: the fused node emits left rows with rewritten valid times.
func (n *AdjustmentNode) Stats() *stats.Table {
	if t, ok := n.stats.load(); ok {
		return t
	}
	in := NodeStats(n.Left)
	if in == nil {
		return n.stats.store(nil)
	}
	return n.stats.store(&stats.Table{Rows: int64(n.rows), Cols: in.Cols})
}

// Build runs the one fused operator over guarded inputs (see
// ExecCtx.input).
func (n *AdjustmentNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	l, err := ctx.input(n.Left)
	if err != nil {
		return nil, err
	}
	r, err := ctx.input(n.Right)
	if err != nil {
		return nil, err
	}
	fa := exec.NewColFusedAdjust(l, r, n.Mode, bindPairs(ctx, n.Keys), ctx.bind(n.Residual))
	fa.SizeHint = rowHint(n.Right)
	if ctx != nil && ctx.stats != nil {
		fa.Stats = ctx.statsFor(n)
	}
	return exec.ApplyColBatch(fa, n.batch), nil
}

func (n *AdjustmentNode) Label() string { return "FusedAdjust " + n.Mode.String() }

// SweepAggNode is temporal aggregation B,Tϑ_F(N_B(r; r)) as one operator,
// exec.ColSweepAggregate: an endpoint sweep per key run of r's group
// index, where the reduction splits every row of r at its key's endpoints
// and hashes the pieces on (B, Ts, Te). The optimizer puts it in place of
// that plan when F is invertible (opt's sweepAggregate rule).
type SweepAggNode struct {
	Input Node // r
	// Keys are B as r's columns; Group names, per output group column, its
	// column of r.
	Keys, Group []int
	Aggs        []exec.AggSpec

	out   schema.Schema
	batch int
}

// SweepAggregate builds the node with the output schema of the
// aggregation it replaces; every aggregate is COUNT(*), or COUNT or SUM of
// a column of input.
func (p *Planner) SweepAggregate(input Node, keys, group []int, out schema.Schema, aggs []exec.AggSpec) *SweepAggNode {
	return &SweepAggNode{Input: input, Keys: keys, Group: group, Aggs: aggs, out: out, batch: p.Flags.BatchSize}
}

func (n *SweepAggNode) Schema() schema.Schema { return n.out }
func (n *SweepAggNode) Children() []Node      { return []Node{n.Input} }

// Rows is the sweep's bound: a run of m rows has at most 2m − 1
// elementary intervals.
func (n *SweepAggNode) Rows() float64 { return math.Max(1, 2*n.Input.Rows()) }

// Build runs the sweep over a guarded input (see ExecCtx.input).
func (n *SweepAggNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.input(n.Input)
	if err != nil {
		return nil, err
	}
	sw, err := exec.NewColSweepAggregate(in, n.Keys, n.Group, n.out, n.Aggs)
	if err != nil {
		return nil, err
	}
	sw.SizeHint = rowHint(n.Input)
	if ctx != nil && ctx.stats != nil {
		sw.Stats = ctx.statsFor(n)
	}
	return exec.ApplyColBatch(sw, n.batch), nil
}

func (n *SweepAggNode) Label() string {
	return fmt.Sprintf("SweepAggregate (%d key cols, %d aggs)", len(n.Keys), len(n.Aggs))
}
