package opt

import (
	"math/bits"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/schema"
)

// maxReorderLeaves bounds the join sets the reorderer will touch; beyond
// it the analyzer's order stands.
const maxReorderLeaves = 12

// maxDPLeaves is the cutoff between exhaustive left-deep dynamic
// programming and the greedy heuristic.
const maxDPLeaves = 8

// leaf is one relation of a flattened inner-join chain.
type leaf struct {
	node  plan.Node
	start int // column offset in the original left-to-right order
	width int
}

// reorder is the memoized phase-2 entry point (join reordering).
func (o *optimizer) reorder(n plan.Node) plan.Node {
	if r, ok := o.reMemo[n]; ok {
		return r
	}
	r := o.reorderNode(n)
	o.reMemo[n] = r
	return r
}

// flattenable joins participate in reordering: plain inner joins without
// the reduction rules' T-equality (whose group semantics pin the sides).
func flattenable(j *plan.JoinNode) bool {
	return j.Type == exec.InnerJoin && !j.MatchT
}

func (o *optimizer) reorderNode(n plan.Node) plan.Node {
	if j, ok := n.(*plan.JoinNode); ok && flattenable(j) {
		var leaves []leaf
		var conjs []expr.Expr
		flatten(j, 0, &leaves, &conjs)
		if len(leaves) >= 3 && len(leaves) <= maxReorderLeaves {
			for i := range leaves {
				leaves[i].node = o.reorder(leaves[i].node)
			}
			return o.reorderJoin(j.Schema(), leaves, conjs)
		}
	}
	return o.rebuildChildren(n)
}

// flatten decomposes a maximal inner-join chain into its leaf relations
// and the conjuncts of every ON condition, rebased to absolute column
// positions over the chain's left-to-right concatenation.
func flatten(n plan.Node, start int, leaves *[]leaf, conjs *[]expr.Expr) int {
	if j, ok := n.(*plan.JoinNode); ok && flattenable(j) {
		lw := flatten(j.Left, start, leaves, conjs)
		rw := flatten(j.Right, start+lw, leaves, conjs)
		if j.Cond != nil {
			for _, c := range expr.Conjuncts(j.Cond) {
				*conjs = append(*conjs, expr.Shift(c, start))
			}
		}
		return lw + rw
	}
	w := n.Schema().Len()
	*leaves = append(*leaves, leaf{node: n, start: start, width: w})
	return w
}

// cand is one candidate left-deep join over a subset of leaves.
type cand struct {
	node  plan.Node
	order []int // leaf indices, left to right
}

// reorderJoin searches for the cheapest left-deep join order.
//
// The first leaf stays anchored leftmost: a join's output valid time is
// its left input's T, so every left-deep tree starting with leaf 0
// produces tuples timestamped with leaf 0's T — exactly like the original
// left-deep chain — and every residual conjunct still evaluates with
// env.T = leaf 0's T. Orders that move leaf 0 would change the observable
// valid times and are never considered.
//
// Conjuncts referencing a single leaf (and not the tuple's T) are pushed
// into that leaf up front; every other conjunct attaches to the first
// join whose inputs cover its columns.
func (o *optimizer) reorderJoin(origSchema schema.Schema, leaves []leaf, conjs []expr.Expr) plan.Node {
	n := len(leaves)
	leafOf := func(col int) int {
		for i, l := range leaves {
			if col >= l.start && col < l.start+l.width {
				return i
			}
		}
		return -1
	}

	// Classify conjuncts; pre-push single-leaf value predicates.
	var remaining []expr.Expr
	var masks []uint32
	for _, c := range conjs {
		var mask uint32
		expr.Remap(c, func(idx int) int { // Remap as a read-only walker
			if l := leafOf(idx); l >= 0 {
				mask |= 1 << l
			}
			return idx
		})
		if bits.OnesCount32(mask) == 1 && !expr.UsesT(c) {
			i := bits.TrailingZeros32(mask)
			leaves[i].node = o.filter(leaves[i].node, expr.Shift(c, -leaves[i].start))
			continue
		}
		remaining = append(remaining, c)
		masks = append(masks, mask)
	}

	// extend joins one more leaf onto a candidate, attaching every
	// conjunct that becomes applicable. placed(mask) covers all conjuncts
	// within mask once mask holds at least two leaves (a singleton has no
	// join to carry them yet).
	extend := func(c cand, maskC uint32, j int) cand {
		newMask := maskC | 1<<j
		order := append(append([]int{}, c.order...), j)
		remap := remapFor(order, leaves)
		var conds []expr.Expr
		for k, conj := range remaining {
			inNew := masks[k]&^newMask == 0
			placedBefore := bits.OnesCount32(maskC) >= 2 && masks[k]&^maskC == 0
			if inNew && !placedBefore {
				conds = append(conds, expr.Remap(conj, remap))
			}
		}
		var cond expr.Expr
		if len(conds) > 0 {
			cond = expr.And(conds...)
		}
		return cand{node: o.p.Join(c.node, leaves[j].node, cond, exec.InnerJoin, false), order: order}
	}

	full := uint32(1)<<n - 1
	var best cand
	if n <= maxDPLeaves {
		dp := make([]*cand, 1<<n)
		c0 := cand{node: leaves[0].node, order: []int{0}}
		dp[1] = &c0
		for mask := uint32(1); mask <= full; mask++ {
			if mask&1 == 0 || dp[mask] == nil {
				continue
			}
			for j := 1; j < n; j++ {
				if mask&(1<<j) != 0 {
					continue
				}
				next := extend(*dp[mask], mask, j)
				slot := mask | 1<<j
				if dp[slot] == nil || next.node.Cost() < dp[slot].node.Cost() {
					dp[slot] = &next
				}
			}
		}
		best = *dp[full]
	} else {
		cur := cand{node: leaves[0].node, order: []int{0}}
		mask := uint32(1)
		for len(cur.order) < n {
			var pick cand
			for j := 1; j < n; j++ {
				if mask&(1<<j) != 0 {
					continue
				}
				next := extend(cur, mask, j)
				if pick.node == nil || next.node.Cost() < pick.node.Cost() {
					pick = next
				}
			}
			cur = pick
			mask |= 1 << uint(cur.order[len(cur.order)-1])
		}
		best = cur
	}

	// Compare against the original order on TOTAL cost — a reordered
	// plan pays a column-restoring projection on top of its joins — and
	// prefer the original on ties (less churn, stable EXPLAIN).
	identity := cand{node: leaves[0].node, order: []int{0}}
	idMask := uint32(1)
	for j := 1; j < n; j++ {
		identity = extend(identity, idMask, j)
		idMask |= 1 << j
	}
	bestFinal := o.restoreOrder(best, leaves, origSchema)
	if identity.node.Cost() <= bestFinal.Cost() {
		return identity.node
	}
	return bestFinal
}

// restoreOrder re-projects a reordered join back to the original column
// order (a no-op projection is elided for the identity order).
func (o *optimizer) restoreOrder(c cand, leaves []leaf, origSchema schema.Schema) plan.Node {
	ident := true
	for i, li := range c.order {
		if li != i {
			ident = false
			break
		}
	}
	if ident {
		return c.node
	}
	remap := remapFor(c.order, leaves)
	names := make([]string, origSchema.Len())
	exprs := make([]expr.Expr, origSchema.Len())
	for col, at := range origSchema.Attrs {
		names[col] = at.Name
		exprs[col] = expr.ColIdx{Idx: remap(col), Typ: at.Type, Name: at.Name}
	}
	return o.project(c.node, names, exprs, exec.TKeep, nil)
}

// remapFor builds the original-column → reordered-column translation for
// a leaf order.
func remapFor(order []int, leaves []leaf) func(int) int {
	newStart := make(map[int]int, len(order))
	off := 0
	for _, li := range order {
		newStart[li] = off
		off += leaves[li].width
	}
	leafOf := func(col int) int {
		for i, l := range leaves {
			if col >= l.start && col < l.start+l.width {
				return i
			}
		}
		return -1
	}
	return func(col int) int {
		li := leafOf(col)
		if li < 0 {
			return col
		}
		return newStart[li] + (col - leaves[li].start)
	}
}

// rebuildChildren rewrites a node's children through the reorder pass and
// reconstructs the node when any child changed.
func (o *optimizer) rebuildChildren(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.FilterNode:
		if in := o.reorder(x.Input); in != x.Input {
			return o.p.Filter(in, x.Pred)
		}
	case *plan.ProjectNode:
		if in := o.reorder(x.Input); in != x.Input {
			return o.p.ProjectMode(in, x.Names, x.Exprs, x.TMode, x.TExpr)
		}
	case *plan.SortNode:
		if in := o.reorder(x.Input); in != x.Input {
			return o.p.Sort(in, x.Keys...)
		}
	case *plan.JoinNode:
		l, r := o.reorder(x.Left), o.reorder(x.Right)
		if l != x.Left || r != x.Right {
			return o.p.Join(l, r, x.Cond, x.Type, x.MatchT)
		}
	case *plan.AdjustmentNode:
		l, r := o.reorder(x.Left), o.reorder(x.Right)
		if l != x.Left || r != x.Right {
			return o.p.FusedAdjustFrom(l, r, x.Mode, x.Keys, x.Residual)
		}
	case *plan.AggNode:
		if in := o.reorder(x.Input); in != x.Input {
			if agg, err := o.p.Aggregate(in, x.GroupBy, x.Names, x.GroupByT, x.Aggs); err == nil {
				return agg
			}
		}
	case *plan.SetOpNode:
		l, r := o.reorder(x.Left), o.reorder(x.Right)
		if l != x.Left || r != x.Right {
			return o.p.SetOp(l, r, x.Kind)
		}
	case *plan.DistinctNode:
		if in := o.reorder(x.Input); in != x.Input {
			return o.p.Distinct(in)
		}
	case *plan.AbsorbNode:
		if in := o.reorder(x.Input); in != x.Input {
			return o.p.Absorb(in)
		}
	case *plan.SharedNode:
		if in := o.reorder(x.Input); in != x.Input {
			return o.p.Shared(in)
		}
	}
	return n
}
