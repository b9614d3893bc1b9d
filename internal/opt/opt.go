// Package opt implements the rule-based optimizer that runs between the
// analyzer and the executor: a rewrite pass over plan.Node trees doing
// constant folding, filter merging, predicate pushdown (below
// projections, joins, set operations, duplicate elimination, aggregation
// and the fused ALIGN/NORMALIZE operator), projection collapsing,
// and temporal aggregation as an endpoint sweep (sweep.go). Inner joins
// run in the order written. Every rebuilt node goes back through the
// plan.Planner, so its access (hash on the equi keys or nested loop)
// follows the rewritten condition and its rows are re-estimated against
// the rewritten inputs — with table statistics from ANALYZE when the
// catalog carries them.
//
// The pass is semantics-preserving by construction; each rule documents
// the invariant that makes it safe (most importantly: a join's output
// valid time is its LEFT input's T, so pushdown to the right side is
// restricted to conjuncts that do not read T). plan.Flags.DisableOptimizer
// bypasses the whole pass for differential testing.
package opt

import (
	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/value"
)

// Optimize rewrites a plan under the planner's flags and statistics and
// returns the (possibly identical) optimized plan. The input plan is
// never mutated; shared subtrees (WITH bodies) stay shared in the output.
func Optimize(n plan.Node, p *plan.Planner) plan.Node {
	o := &optimizer{p: p, memo: map[plan.Node]plan.Node{}}
	return o.rewrite(n)
}

// optimizer carries one pass's state: the planner (flags + statistics)
// and a sharing-preserving memo table.
type optimizer struct {
	p    *plan.Planner
	memo map[plan.Node]plan.Node
}

// rewrite is the memoized entry point (folding, filters, projections).
func (o *optimizer) rewrite(n plan.Node) plan.Node {
	if r, ok := o.memo[n]; ok {
		return r
	}
	r := o.rewriteNode(n)
	o.memo[n] = r
	return r
}

// rewriteNode rewrites children bottom-up and applies the local rules.
func (o *optimizer) rewriteNode(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.FilterNode:
		return o.filter(o.rewrite(x.Input), x.Pred)
	case *plan.ProjectNode:
		return o.project(o.rewrite(x.Input), x.Names, foldAll(x.Exprs), x.TMode, fold(x.TExpr))
	case *plan.JoinNode:
		return o.join(o.rewrite(x.Left), o.rewrite(x.Right), x.Cond, x.Type, x.MatchT)
	case *plan.AdjustmentNode:
		l, r := o.rewrite(x.Left), o.rewrite(x.Right)
		if l == x.Left && r == x.Right {
			return x
		}
		return o.p.FusedAdjustFrom(l, r, x.Mode, x.Keys, x.Residual)
	case *plan.SortNode:
		in := o.rewrite(x.Input)
		if in == x.Input {
			return x
		}
		return o.p.Sort(in, x.Keys...)
	case *plan.AggNode:
		if in := o.rewrite(x.Input); in != x.Input {
			agg, err := o.p.Aggregate(in, x.GroupBy, x.Names, x.GroupByT, x.Aggs)
			if err != nil {
				return x
			}
			x = agg
		}
		return o.sweepAggregate(x)
	case *plan.SetOpNode:
		l, r := o.rewrite(x.Left), o.rewrite(x.Right)
		if l == x.Left && r == x.Right {
			return x
		}
		return o.p.SetOp(l, r, x.Kind)
	case *plan.DistinctNode:
		in := o.rewrite(x.Input)
		if in == x.Input {
			return x
		}
		return o.p.Distinct(in)
	case *plan.AbsorbNode:
		in := o.rewrite(x.Input)
		if in == x.Input {
			return x
		}
		return o.p.Absorb(in)
	case *plan.SharedNode:
		in := o.rewrite(x.Input)
		if in == x.Input {
			return x
		}
		return o.p.Shared(in)
	}
	return n
}

// filter is the smart Filter constructor: it folds the predicate, prunes
// trivially true/false filters, merges adjacent filters, and pushes
// conjuncts as far down as the input's semantics allow. in must already
// be rewritten.
func (o *optimizer) filter(in plan.Node, pred expr.Expr) plan.Node {
	pred = fold(pred)
	// A constant of any other kind (WHERE 0) is not a predicate: the filter
	// stays and the executor reports it.
	if c, ok := pred.(expr.Const); ok && (c.V.IsNull() || c.V.Kind() == value.KindBool) {
		if !c.V.IsNull() && c.V.Bool() {
			return in // WHERE TRUE
		}
		// WHERE FALSE (or ω, which WHERE treats as false): the result is
		// empty with the input's schema.
		return o.p.Scan(relation.New(in.Schema()), "∅")
	}
	if f, ok := in.(*plan.FilterNode); ok {
		return o.filter(f.Input, expr.And(pred, f.Pred))
	}

	switch x := in.(type) {
	case *plan.ProjectNode:
		// Substituting the projection's expressions into the predicate
		// moves it below the projection. Safe unless the substituted
		// predicate reads the tuple's own T while the projection rewrites
		// T (TFromExpr): below, T is still the input's.
		sub := substitute(pred, x.Exprs)
		if x.TMode == exec.TKeep || !expr.UsesT(sub) {
			return o.project(o.filter(x.Input, sub), x.Names, x.Exprs, x.TMode, x.TExpr)
		}

	case *plan.JoinNode:
		return o.filterOverJoin(x, pred)

	case *plan.AdjustmentNode:
		// The fused node emits rows carrying a LEFT tuple's values (with
		// adjusted T), and every left tuple yields at least its own
		// output rows independently of the others — so a value-only
		// predicate commutes with the whole group construction + sweep.
		push, keep := splitConjuncts(pred, func(c expr.Expr) bool { return !expr.UsesT(c) })
		if push != nil {
			n := o.p.FusedAdjustFrom(o.filter(x.Left, push), x.Right, x.Mode, x.Keys, x.Residual)
			return o.keepFilter(n, keep)
		}

	case *plan.SetOpNode:
		// Set operations match whole tuples, so value-equal tuples pass
		// or fail a value predicate identically on both sides.
		push, keep := splitConjuncts(pred, func(c expr.Expr) bool { return !expr.UsesT(c) })
		if push != nil {
			n := o.p.SetOp(o.filter(x.Left, push), o.filter(x.Right, push), x.Kind)
			return o.keepFilter(n, keep)
		}

	case *plan.DistinctNode:
		push, keep := splitConjuncts(pred, func(c expr.Expr) bool { return !expr.UsesT(c) })
		if push != nil {
			return o.keepFilter(o.p.Distinct(o.filter(x.Input, push)), keep)
		}

	case *plan.AbsorbNode:
		// Absorption compares only value-equal tuples, which a value
		// predicate keeps or drops as a block.
		push, keep := splitConjuncts(pred, func(c expr.Expr) bool { return !expr.UsesT(c) })
		if push != nil {
			return o.keepFilter(o.p.Absorb(o.filter(x.Input, push)), keep)
		}

	case *plan.ScanNode:
		// A filter directly above a scan cannot be pushed further, but
		// its column/TS/TE-vs-constant conjuncts become zone-map prune
		// bounds on the scan: segments of storage-backed relations whose
		// zone proves the predicate false are skipped at Build time. The
		// filter stays in place, so this only ever skips work.
		if !o.p.Flags.DisablePruning && x.Prune == nil && x.Rel.Segments() != nil {
			if pb := plan.ExtractPruneBounds(pred, x.Schema().Len()); pb != nil {
				in = x.WithPrune(pb)
			}
		}

	case *plan.AggNode:
		// HAVING conjuncts over group-by output columns filter whole
		// groups; substituting the grouping expressions moves them below
		// the aggregation.
		push, keep := splitConjuncts(pred, func(c expr.Expr) bool {
			if expr.MinColIdx(c) < 0 || expr.MaxColIdx(c) >= len(x.GroupBy) {
				return false
			}
			return !expr.UsesT(substitute(c, x.GroupBy))
		})
		if push != nil {
			agg, err := o.p.Aggregate(o.filter(x.Input, substitute(push, x.GroupBy)), x.GroupBy, x.Names, x.GroupByT, x.Aggs)
			if err == nil {
				return o.keepFilter(agg, keep)
			}
		}
	}
	return o.p.Filter(in, pred)
}

// join is the smart Join constructor: for inner joins, ON conjuncts that
// reference a single side become filters on that input (equi pairs span
// both sides and are never touched). An inner join keeps exactly the
// pairs satisfying the condition, so filtering one input by a single-side
// conjunct is equivalent; right-side pushes must not read T (the
// condition evaluates with env.T = the left tuple's T, but a filter on
// the right input would see the right tuple's).
func (o *optimizer) join(l, r plan.Node, cond expr.Expr, typ exec.JoinType, matchT bool) plan.Node {
	if cond != nil && typ == exec.InnerJoin {
		lw := l.Schema().Len()
		var lefts, rights, keep []expr.Expr
		for _, c := range expr.Conjuncts(fold(cond)) {
			min, max := expr.MinColIdx(c), expr.MaxColIdx(c)
			switch {
			case min >= 0 && max < lw:
				lefts = append(lefts, c)
			case min >= lw && !expr.UsesT(c):
				rights = append(rights, expr.Shift(c, -lw))
			default:
				keep = append(keep, c)
			}
		}
		if len(lefts) > 0 || len(rights) > 0 {
			if len(lefts) > 0 {
				l = o.filter(l, expr.And(lefts...))
			}
			if len(rights) > 0 {
				r = o.filter(r, expr.And(rights...))
			}
			if len(keep) == 0 {
				cond = nil
			} else {
				cond = expr.And(keep...)
			}
		}
	}
	return o.p.Join(l, r, cond, typ, matchT)
}

// keepFilter wraps n in a filter for the residual conjuncts, if any.
func (o *optimizer) keepFilter(n plan.Node, keep expr.Expr) plan.Node {
	if keep == nil {
		return n
	}
	return o.p.Filter(n, keep)
}

// filterOverJoin pushes a predicate's conjuncts into a join's inputs.
// The join's output valid time is the LEFT input's T, so left-side pushes
// may reference T while right-side pushes must not; outer joins only
// accept pushes on their row-preserving side (pushing into the
// null-extended side would change which rows get padded). An inner join
// takes the conjuncts that stay into its condition, which evaluates with
// env.T = the left tuple's T, the T a filter above the join reads: a
// comma join's two-sided conjuncts become keys to hash on.
func (o *optimizer) filterOverJoin(j *plan.JoinNode, pred expr.Expr) plan.Node {
	lw := j.Left.Schema().Len()
	canLeft := j.Type == exec.InnerJoin || j.Type == exec.LeftOuterJoin ||
		j.Type == exec.SemiJoin || j.Type == exec.AntiJoin
	canRight := j.Type == exec.InnerJoin || j.Type == exec.RightOuterJoin
	var lefts, rights, keep []expr.Expr
	for _, c := range expr.Conjuncts(pred) {
		min, max := expr.MinColIdx(c), expr.MaxColIdx(c)
		switch {
		case canLeft && min >= 0 && max < lw:
			lefts = append(lefts, c)
		case canRight && min >= lw && !expr.UsesT(c):
			rights = append(rights, expr.Shift(c, -lw))
		default:
			keep = append(keep, c)
		}
	}
	cond := j.Cond
	if j.Type == exec.InnerJoin && len(keep) > 0 {
		if cond != nil {
			keep = append([]expr.Expr{cond}, keep...)
		}
		cond, keep = expr.And(keep...), nil
	}
	if len(lefts) == 0 && len(rights) == 0 && len(keep) > 0 {
		return o.p.Filter(j, pred)
	}
	l, r := j.Left, j.Right
	if len(lefts) > 0 {
		l = o.filter(l, expr.And(lefts...))
	}
	if len(rights) > 0 {
		r = o.filter(r, expr.And(rights...))
	}
	nj := o.p.Join(l, r, cond, j.Type, j.MatchT)
	if len(keep) == 0 {
		return nj
	}
	return o.p.Filter(nj, expr.And(keep...))
}

// project is the smart Project constructor: it collapses stacked
// projections by substitution and elides identity projections. exprs must
// already be folded.
func (o *optimizer) project(in plan.Node, names []string, exprs []expr.Expr, tmode exec.TPolicy, texpr expr.Expr) plan.Node {
	if pj, ok := in.(*plan.ProjectNode); ok {
		composed := make([]expr.Expr, len(exprs))
		for i, e := range exprs {
			composed[i] = fold(substitute(e, pj.Exprs))
		}
		switch {
		case pj.TMode == exec.TKeep:
			// The inner projection passes T through, so the outer T policy
			// (and a substituted TExpr) applies directly to its input.
			return o.project(pj.Input, names, composed, tmode, fold(substitute(texpr, pj.Exprs)))
		case tmode == exec.TKeep && !anyUsesT(composed):
			// The outer projection keeps whatever T the inner one
			// computed; composing keeps the inner policy. The composed
			// value expressions must not read T — below the collapse they
			// would see the pre-rewrite T.
			return o.project(pj.Input, names, composed, pj.TMode, pj.TExpr)
		}
	}
	if tmode == exec.TKeep && isIdentityProject(in, names, exprs) {
		return in
	}
	return o.p.ProjectMode(in, names, exprs, tmode, texpr)
}

// isIdentityProject reports whether the projection returns its input
// unchanged: every column in order, by plain reference, keeping its name.
func isIdentityProject(in plan.Node, names []string, exprs []expr.Expr) bool {
	sch := in.Schema()
	if len(exprs) != sch.Len() {
		return false
	}
	for i, e := range exprs {
		ci, ok := e.(expr.ColIdx)
		if !ok || ci.Idx != i || names[i] != sch.Attrs[i].Name {
			return false
		}
	}
	return true
}

// splitConjuncts partitions a predicate's conjuncts by pushable; both
// results are nil-able conjunctions.
func splitConjuncts(pred expr.Expr, pushable func(expr.Expr) bool) (push, keep expr.Expr) {
	var ps, ks []expr.Expr
	for _, c := range expr.Conjuncts(pred) {
		if pushable(c) {
			ps = append(ps, c)
		} else {
			ks = append(ks, c)
		}
	}
	if len(ps) == 0 {
		return nil, pred
	}
	push = expr.And(ps...)
	if len(ks) > 0 {
		keep = expr.And(ks...)
	}
	return push, keep
}

// substitute rewrites every positional column reference in e with the
// corresponding projection expression (re-targeting a predicate from a
// projection's output to its input).
func substitute(e expr.Expr, exprs []expr.Expr) expr.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case expr.ColIdx:
		if x.Idx >= 0 && x.Idx < len(exprs) {
			return exprs[x.Idx]
		}
		return x
	case expr.Cmp:
		return expr.Cmp{Op: x.Op, L: substitute(x.L, exprs), R: substitute(x.R, exprs)}
	case expr.Logic:
		return expr.Logic{Op: x.Op, L: substitute(x.L, exprs), R: substitute(x.R, exprs)}
	case expr.Not:
		return expr.Not{X: substitute(x.X, exprs)}
	case expr.IsNull:
		return expr.IsNull{X: substitute(x.X, exprs), Negate: x.Negate}
	case expr.Between:
		return expr.Between{X: substitute(x.X, exprs), Lo: substitute(x.Lo, exprs), Hi: substitute(x.Hi, exprs)}
	case expr.Arith:
		return expr.Arith{Op: x.Op, L: substitute(x.L, exprs), R: substitute(x.R, exprs)}
	case expr.Func:
		args := make([]expr.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substitute(a, exprs)
		}
		return expr.Func{Name: x.Name, Args: args}
	}
	return e
}

// anyUsesT reports whether any expression reads the tuple's own T.
func anyUsesT(exprs []expr.Expr) bool {
	for _, e := range exprs {
		if e != nil && expr.UsesT(e) {
			return true
		}
	}
	return false
}
