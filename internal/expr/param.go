package expr

import (
	"fmt"

	"talign/internal/schema"
	"talign/internal/value"
)

// Param is a $N query parameter placeholder (1-based). A plan containing
// Param nodes is a generic plan: it is analyzed, optimized and cached once.
// BindParams ties an expression's placeholders to a parameter frame once
// per built pipeline, and every execution overwrites the frame without
// re-planning or re-binding. An unbound Param's static type is unknown
// (KindNull) and evaluating it is an error.
type Param struct {
	// Idx is the 1-based parameter position ($1 has Idx 1).
	Idx int
	// Peek is set on a slot the statement front end lifted out of the
	// statement text: the literal first seen in that position. The plan is
	// shared by every statement of the same shape, so the peeked value may
	// feed row estimates and nothing else — which rows qualify is decided
	// by the value bound at execution. It also fixes the slot's static kind
	// (statements whose literals differ in kind never share a plan) and is
	// what EXPLAIN prints for the slot.
	Peek *value.Value
	// Slot, set by BindParams, is the placeholder's cell in the frame the
	// expression was bound to; Eval reads whatever the frame holds then.
	Slot *value.Value
}

// Bind implements Expr; placeholders are position-bound already and pass
// through schema binding unchanged.
func (p Param) Bind(schema.Schema) (Expr, error) { return p, nil }

// Type reports KindNull for a caller's placeholder — its type is unknown
// until a value is bound, and every operator in this engine accepts
// runtime kinds — and the literal's kind for a lifted slot.
func (p Param) Type() value.Kind {
	if p.Peek != nil {
		return p.Peek.Kind()
	}
	return value.KindNull
}

// Eval reads the bound frame slot. It fails on an unbound placeholder:
// the caller skipped BindParams (or supplied too few values).
func (p Param) Eval(*Env) (value.Value, error) {
	if p.Slot != nil {
		return *p.Slot, nil
	}
	return value.Null, fmt.Errorf("expr: parameter $%d not bound", p.Idx)
}

// String renders the placeholder in PostgreSQL's $N syntax; a lifted slot
// renders as the literal it was lifted from, since the caller never wrote
// a $N for it.
func (p Param) String() string {
	if p.Peek != nil {
		return p.Peek.String()
	}
	return fmt.Sprintf("$%d", p.Idx)
}

// BindParams returns e with every Param that has a slot in frame bound to
// it (frame[0] is $1): the result reads the frame at evaluation time, so the
// caller rebinds by overwriting frame's elements, never by growing it.
// Params beyond len(frame) stay unbound and fail at Eval time; expressions
// without placeholders are returned unchanged (no copy).
func BindParams(e Expr, frame []value.Value) Expr {
	if e == nil || len(frame) == 0 || !HasParams(e) {
		return e
	}
	return rewriteParams(e, frame)
}

func rewriteParams(e Expr, vals []value.Value) Expr {
	switch x := e.(type) {
	case Param:
		if x.Idx >= 1 && x.Idx <= len(vals) {
			x.Slot = &vals[x.Idx-1]
		}
		return x
	case Cmp:
		return Cmp{x.Op, rewriteParams(x.L, vals), rewriteParams(x.R, vals)}
	case Logic:
		return Logic{x.Op, rewriteParams(x.L, vals), rewriteParams(x.R, vals)}
	case Not:
		return Not{rewriteParams(x.X, vals)}
	case IsNull:
		return IsNull{rewriteParams(x.X, vals), x.Negate}
	case Between:
		return Between{rewriteParams(x.X, vals), rewriteParams(x.Lo, vals), rewriteParams(x.Hi, vals)}
	case Arith:
		return Arith{x.Op, rewriteParams(x.L, vals), rewriteParams(x.R, vals)}
	case Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewriteParams(a, vals)
		}
		return Func{Name: x.Name, Args: args}
	}
	return e
}

// HasParams reports whether e contains any Param placeholder.
func HasParams(e Expr) bool {
	if e == nil {
		return false
	}
	found := false
	walk(e, func(x Expr) {
		if _, ok := x.(Param); ok {
			found = true
		}
	})
	return found
}
