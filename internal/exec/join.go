package exec

import (
	"talign/internal/expr"
	"talign/internal/tuple"
	"talign/internal/value"
)

// JoinType enumerates join flavours. Semi and Anti emit left tuples only.
type JoinType uint8

// The join flavours; outer joins pad the unmatched side with ω.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	SemiJoin
	AntiJoin
)

// String renders the flavour for EXPLAIN labels.
func (j JoinType) String() string {
	return [...]string{"inner", "left outer", "right outer", "full outer", "semi", "anti"}[j]
}

// projectsLeftOnly reports whether the join type outputs only the left row.
func (j JoinType) projectsLeftOnly() bool { return j == SemiJoin || j == AntiJoin }

// joinCore holds behaviour shared by all join implementations.
type joinCore struct {
	typ    JoinType
	lWidth int
	rWidth int
	// matchT additionally requires l.T == r.T (the reduction rules'
	// timestamp equality). It is part of the join condition, i.e. it
	// determines null-extension for outer joins.
	matchT bool
	// scratch avoids re-allocating the concatenated row for every
	// candidate pair in the inner loops; env is the matching reused
	// evaluation environment.
	scratch []value.Value
	env     expr.Env
}

// combine builds an output tuple from a matched pair. The output valid time
// is the left tuple's T (equal to the right's when matchT is set).
func (jc *joinCore) combine(l, r tuple.Tuple) tuple.Tuple {
	if jc.typ.projectsLeftOnly() {
		return l
	}
	return l.Concat(r, l.T)
}

// padRight builds an output for an unmatched left tuple (left/full outer).
func (jc *joinCore) padRight(l tuple.Tuple) tuple.Tuple {
	return l.Concat(tuple.NullPad(jc.rWidth, l.T), l.T)
}

// padLeft builds an output for an unmatched right tuple (right/full outer).
func (jc *joinCore) padLeft(r tuple.Tuple) tuple.Tuple {
	return tuple.NullPad(jc.lWidth, r.T).Concat(r, r.T)
}

// matches evaluates the join condition over a candidate pair: optional
// timestamp equality, then the predicate over the concatenated row with
// env.T = l.T.
func (jc *joinCore) matches(cond expr.Expr, l, r tuple.Tuple) (bool, error) {
	if jc.matchT && l.T != r.T {
		return false, nil
	}
	if cond == nil {
		return true, nil
	}
	jc.scratch = jc.scratch[:0]
	jc.scratch = append(jc.scratch, l.Vals...)
	jc.scratch = append(jc.scratch, r.Vals...)
	jc.env = expr.Env{Vals: jc.scratch, T: l.T}
	return expr.EvalBool(cond, &jc.env)
}
