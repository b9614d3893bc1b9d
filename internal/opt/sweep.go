package opt

import (
	"reflect"
	"slices"

	"talign/internal/colbatch"
	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
)

// sweepAggregate is the temporal-aggregation rule. Table 2 reduces
// B,Tϑ_F(r) to GROUP BY B, Ts, Te over N_B(r; r), whose pieces the
// aggregation hashes. When the grouping is exactly the USING columns B
// and T, N_B's inputs are the same rows (sameInput), and every aggregate
// is COUNT(*), or COUNT or SUM of an int column of r, the aggregation, a
// column projection under it and N_B become one endpoint sweep per key
// run of r (plan.SweepAggNode), whose answer is equal: each elementary
// interval's active rows are the pieces the reduction groups there. Any
// other shape keeps its plan: agg is returned as it is.
func (o *optimizer) sweepAggregate(agg *plan.AggNode) plan.Node {
	in, cols := agg.Input, []expr.Expr(nil) // cols: agg's input columns as N_B's
	if pj, ok := in.(*plan.ProjectNode); ok && pj.TMode == exec.TKeep {
		in, cols = pj.Input, pj.Exprs
	}
	norm, ok := in.(*plan.AdjustmentNode)
	if !agg.GroupByT || !ok || norm.Mode != exec.ModeNormalize || norm.Residual != nil || !sameInput(norm.Left, norm.Right) {
		return agg
	}
	col := func(e expr.Expr) int { // e's column of r, or -1
		if c, ok := substitute(e, cols).(expr.ColIdx); ok {
			return c.Idx
		}
		return -1
	}
	keys, group, aggs := make([]int, len(norm.Keys)), make([]int, len(agg.GroupBy)), slices.Clone(agg.Aggs)
	for i, k := range norm.Keys {
		c, ok := k.Left.(expr.ColIdx)
		if !ok || !reflect.DeepEqual(k.Left, k.Right) {
			return agg
		}
		keys[i] = c.Idx
	}
	for i, g := range agg.GroupBy {
		if group[i] = col(g); !slices.Contains(keys, group[i]) {
			return agg
		}
	}
	for i, a := range aggs {
		if a.Func == exec.AggCountStar {
			continue
		}
		c := col(a.Arg)
		if a.Func != exec.AggCount && a.Func != exec.AggSum || c < 0 || !intStorage(norm.Left, c) {
			return agg
		}
		aggs[i].Arg = expr.ColIdx{Idx: c, Typ: norm.Left.Schema().Attrs[c].Type}
	}
	for _, k := range keys {
		if !slices.Contains(group, k) {
			return agg
		}
	}
	return o.p.SweepAggregate(norm.Left, keys, group, agg.Schema(), aggs)
}

// sameInput reports whether two subplans produce the same rows: one node,
// or one relation's scans under equal filters and projections (`r a` and
// `r b` are two scan nodes).
func sameInput(a, b plan.Node) bool {
	switch x := a.(type) {
	case *plan.ScanNode:
		y, ok := b.(*plan.ScanNode)
		return ok && x.Rel == y.Rel
	case *plan.FilterNode:
		y, ok := b.(*plan.FilterNode)
		return ok && reflect.DeepEqual(x.Pred, y.Pred) && sameInput(x.Input, y.Input)
	case *plan.ProjectNode:
		y, ok := b.(*plan.ProjectNode)
		return ok && x.TMode == y.TMode && reflect.DeepEqual(x.Exprs, y.Exprs) && reflect.DeepEqual(x.TExpr, y.TExpr) && sameInput(x.Input, y.Input)
	}
	return a == b
}

// intStorage reports whether column c of n is a scanned relation's column
// that holds ints and ω only: numeric mixing lets an int column hold
// floats, and the reduction sums those as floats, in piece order.
func intStorage(n plan.Node, c int) bool {
	for {
		switch x := n.(type) {
		case *plan.ProjectNode:
			ci, ok := x.Exprs[c].(expr.ColIdx)
			if !ok {
				return false
			}
			n, c = x.Input, ci.Idx
		case *plan.FilterNode:
			n = x.Input
		case *plan.ScanNode:
			parts := x.Rel.Parts()
			if parts == nil {
				parts = []*colbatch.Batch{x.Rel.Columnar()}
			}
			for _, p := range parts {
				if _, ok := p.Cols[c].IntsRaw(); !ok {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
}
