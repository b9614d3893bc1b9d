// Zone-map segment pruning. Relations loaded from on-disk storage carry
// interval-partitioned segments with zone maps (min/max TS/TE, per-column
// min/max — see relation.Segments). When the optimizer lands a filter
// directly above a scan, it extracts the conjuncts that compare one
// column (or TS/TE) against a constant or a $N placeholder into
// PruneBounds and attaches them to the scan; once per execution — at Open,
// with that execution's parameter values — the scan skips every segment
// whose zone proves the predicate false for all of its rows. The filter stays in place above the scan, so pruning can only
// skip work, never change results — which is exactly what the pruning
// differential test asserts.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/value"
)

// Prune targets: attribute columns are their non-negative index; the
// valid-time endpoints get the two sentinels.
const (
	pruneTS = -1
	pruneTE = -2
)

// pruneCond is one extracted conjunct: target op operand, where operand
// is an expr.Const or an expr.Param.
type pruneCond struct {
	target  int
	op      expr.CmpOp
	operand expr.Expr
}

// value resolves the operand for one execution: a constant is itself, a
// placeholder is the value bound to it. ok is false — the conjunct then
// prunes nothing — when the placeholder is unbound or the value is ω (a
// null operand never compares true; that is left to the filter). A
// placeholder's peeked literal is never consulted: it belongs to whichever
// statement planned first, not to this execution.
func (c pruneCond) value(params []value.Value) (v value.Value, ok bool) {
	switch x := c.operand.(type) {
	case expr.Const:
		v = x.V
	case expr.Param:
		if x.Idx < 1 || x.Idx > len(params) {
			return value.Null, false
		}
		v = params[x.Idx-1]
	}
	return v, !v.IsNull()
}

// PruneBounds is the set of zone-checkable conjuncts of a scan's
// pushed-down predicate.
type PruneBounds struct {
	conds []pruneCond
}

// ExtractPruneBounds collects the zone-checkable conjuncts of pred:
// comparisons of a column or TS/TE with a constant or a $N placeholder,
// plus BETWEEN over those operands. Conjuncts of any other shape
// (column-column, disjunctions, computed operands) contribute nothing —
// they are simply not used for pruning. Returns nil when no conjunct
// qualifies.
func ExtractPruneBounds(pred expr.Expr, width int) *PruneBounds {
	var pb PruneBounds
	add := func(target int, op expr.CmpOp, operand expr.Expr) {
		if target >= 0 && target >= width {
			return
		}
		switch x := operand.(type) {
		case expr.Const:
			if x.V.IsNull() {
				return // a null constant never compares true; leave it to the filter
			}
		case expr.Param:
		default:
			return
		}
		pb.conds = append(pb.conds, pruneCond{target: target, op: op, operand: operand})
	}
	for _, c := range expr.Conjuncts(pred) {
		switch e := c.(type) {
		case expr.Cmp:
			if target, ok := pruneTargetOf(e.L); ok {
				add(target, e.Op, e.R)
				continue
			}
			if target, ok := pruneTargetOf(e.R); ok {
				add(target, e.Op.Flip(), e.L)
			}
		case expr.Between:
			if target, ok := pruneTargetOf(e.X); ok {
				add(target, expr.GE, e.Lo)
				add(target, expr.LE, e.Hi)
			}
		}
	}
	if len(pb.conds) == 0 {
		return nil
	}
	return &pb
}

// pruneTargetOf maps an operand to a prune target.
func pruneTargetOf(e expr.Expr) (int, bool) {
	switch x := e.(type) {
	case expr.ColIdx:
		return x.Idx, true
	case expr.TStart:
		return pruneTS, true
	case expr.TEnd:
		return pruneTE, true
	}
	return 0, false
}

// Admits reports whether the zone may contain a row satisfying every
// extracted conjunct under the execution's parameter values; false proves
// the segment empty under the predicate and prunes it.
func (pb *PruneBounds) Admits(z *colbatch.Zone, params []value.Value) bool {
	if z.Rows == 0 {
		return false
	}
	for _, c := range pb.conds {
		v, ok := c.value(params)
		if !ok {
			continue
		}
		var min, max value.Value
		switch c.target {
		case pruneTS:
			min, max = value.NewInt(z.MinTS), value.NewInt(z.MaxTS)
		case pruneTE:
			min, max = value.NewInt(z.MinTE), value.NewInt(z.MaxTE)
		default:
			if c.target >= len(z.Cols) {
				continue // zone from an older schema; do not prune on it
			}
			zc := z.Cols[c.target]
			if zc.AllNull() {
				return false // comparing ω never yields TRUE: no row passes
			}
			min, max = zc.Min, zc.Max
		}
		if rangeExcludes(min, max, c.op, v) {
			return false
		}
	}
	return true
}

// rangeExcludes reports whether no x in [min, max] can satisfy
// "x op v". Cross-kind comparisons (beyond int/float mixing) never
// exclude: the filter's own semantics decide those rows.
func rangeExcludes(min, max value.Value, op expr.CmpOp, v value.Value) bool {
	comparable := v.Kind() == min.Kind() && v.Kind() == max.Kind() ||
		(v.Kind().Numeric() && min.Kind().Numeric() && max.Kind().Numeric())
	if !comparable {
		return false
	}
	switch op {
	case expr.EQ:
		return v.Compare(min) < 0 || v.Compare(max) > 0
	case expr.NE:
		return min.Compare(max) == 0 && min.Compare(v) == 0
	case expr.LT:
		return min.Compare(v) >= 0
	case expr.LE:
		return min.Compare(v) > 0
	case expr.GT:
		return max.Compare(v) <= 0
	case expr.GE:
		return max.Compare(v) < 0
	}
	return false
}

// Filter appends to dst the segments of segs that survive one execution's
// parameter values; the others are pruned.
func (pb *PruneBounds) Filter(dst, segs []relation.Segment, params []value.Value) []relation.Segment {
	dst = slices.Grow(dst, len(segs))
	for _, sg := range segs {
		if pb.Admits(&sg.Zone, params) {
			dst = append(dst, sg)
		}
	}
	return dst
}

// WithPrune returns a copy of the scan carrying pb. The receiver is
// left untouched: plans are immutable and may be shared. The bounds
// change what a build reads, not what the scan is estimated to return, so
// the copy keeps the receiver's estimates.
func (s *ScanNode) WithPrune(pb *PruneBounds) *ScanNode {
	c := *s
	c.Prune = pb
	return &c
}

// String renders the bounds for EXPLAIN labels.
func (pb *PruneBounds) String() string {
	var b strings.Builder
	for i, c := range pb.conds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		switch c.target {
		case pruneTS:
			b.WriteString("TS")
		case pruneTE:
			b.WriteString("TE")
		default:
			fmt.Fprintf(&b, "#%d", c.target)
		}
		b.WriteString(" " + c.op.String() + " " + c.operand.String())
	}
	return b.String()
}
