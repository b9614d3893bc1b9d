package exec

import (
	"talign/internal/expr"
	"talign/internal/schema"
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

// NestedLoopJoin evaluates an arbitrary join condition by scanning the
// materialized right input once per left tuple. It supports every join
// type; inner-side match bookkeeping implements right/full outer.
type NestedLoopJoin struct {
	batching
	Left, Right Iterator
	Cond        expr.Expr // bound against Concat(left, right); may be nil
	Type        JoinType
	MatchT      bool

	core       joinCore
	out        schema.Schema
	left       cursor
	inner      []tuple.Tuple
	innerMatch []bool
	cur        tuple.Tuple
	curValid   bool
	curMatched bool
	innerPos   int
	drainPos   int // for right/full outer pad phase
	draining   bool
	done       bool
}

// NewNestedLoopJoin constructs the node; cond may be nil for a Cartesian
// product.
func NewNestedLoopJoin(l, r Iterator, cond expr.Expr, typ JoinType, matchT bool) *NestedLoopJoin {
	n := &NestedLoopJoin{Left: l, Right: r, Cond: cond, Type: typ, MatchT: matchT}
	n.core = joinCore{typ: typ, lWidth: l.Schema().Len(), rWidth: r.Schema().Len(), matchT: matchT}
	if typ.projectsLeftOnly() {
		n.out = l.Schema()
	} else {
		n.out = l.Schema().Concat(r.Schema())
	}
	return n
}

func (n *NestedLoopJoin) Schema() schema.Schema { return n.out }

func (n *NestedLoopJoin) Open() error {
	if err := n.Left.Open(); err != nil {
		return err
	}
	if err := n.Right.Open(); err != nil {
		return err
	}
	var err error
	n.inner, err = drainAppend(n.inner[:0], n.Right)
	if err != nil {
		return err
	}
	if n.Type == RightOuterJoin || n.Type == FullOuterJoin {
		n.innerMatch = make([]bool, len(n.inner))
	}
	n.left.init(n.Left)
	n.curValid = false
	n.draining = false
	n.drainPos = 0
	n.done = false
	return nil
}

func (n *NestedLoopJoin) Next() ([]tuple.Tuple, error) {
	n.resetOut()
	n.reserve(n.left.pending() + len(n.inner))
	target := n.batchCap()
	for len(n.outBuf) < target && !n.done {
		if n.draining {
			for n.drainPos < len(n.inner) && len(n.outBuf) < target {
				i := n.drainPos
				n.drainPos++
				if !n.innerMatch[i] {
					n.push(n.core.padLeft(n.inner[i]))
				}
			}
			if n.drainPos >= len(n.inner) {
				n.done = true
			}
			continue
		}
		if !n.curValid {
			l, ok, err := n.left.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				if n.Type == RightOuterJoin || n.Type == FullOuterJoin {
					n.draining = true
					continue
				}
				n.done = true
				continue
			}
			n.cur = l
			n.curValid = true
			n.curMatched = false
			n.innerPos = 0
		}
		disqualified := false
		for n.innerPos < len(n.inner) {
			r := n.inner[n.innerPos]
			idx := n.innerPos
			n.innerPos++
			ok, err := n.core.matches(n.Cond, n.cur, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			n.curMatched = true
			if n.innerMatch != nil {
				n.innerMatch[idx] = true
			}
			switch n.Type {
			case SemiJoin:
				n.curValid = false
				n.push(n.cur)
				disqualified = true
			case AntiJoin:
				// A match disqualifies the left tuple; for anti joins we
				// stop probing immediately (this early exit is what makes
				// NOT EXISTS fast on D_eq in Fig. 15(b)).
				n.curValid = false
				disqualified = true
			default:
				n.push(n.core.combine(n.cur, r))
				if len(n.outBuf) >= target {
					// Batch full mid-probe: innerPos persists, so the next
					// call resumes exactly here.
					return n.outBuf, nil
				}
			}
			if disqualified {
				break
			}
		}
		if disqualified {
			continue
		}
		// Inner exhausted for this left tuple.
		n.curValid = false
		if !n.curMatched {
			switch n.Type {
			case LeftOuterJoin, FullOuterJoin:
				n.push(n.core.padRight(n.cur))
			case AntiJoin:
				n.push(n.cur)
			}
		}
	}
	return n.outBuf, nil
}

func (n *NestedLoopJoin) Close() error {
	n.inner = nil
	n.innerMatch = nil
	err1 := n.Left.Close()
	err2 := n.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
