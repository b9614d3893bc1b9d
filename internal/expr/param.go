package expr

import (
	"fmt"

	"talign/internal/schema"
	"talign/internal/value"
)

// Param is a $N query parameter placeholder (1-based). A plan containing
// Param nodes is a generic plan: it is analyzed, optimized and cached once,
// and each execution substitutes concrete values with BindParams without
// re-planning. Until then a Param's static type is unknown (KindNull) and
// evaluating it is an error.
type Param struct {
	// Idx is the 1-based parameter position ($1 has Idx 1).
	Idx int
	// Peek is set on a slot the statement front end lifted out of the
	// statement text: the literal first seen in that position. The plan is
	// shared by every statement of the same shape, so the peeked value may
	// feed cost estimates and nothing else — which rows qualify is decided
	// by the value bound at execution. It also fixes the slot's static kind
	// (statements whose literals differ in kind never share a plan) and is
	// what EXPLAIN prints for the slot.
	Peek *value.Value
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

// Eval fails: executing a plan that still contains placeholders means the
// caller skipped BindParams (or supplied too few values).
func (p Param) Eval(*Env) (value.Value, error) {
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

// BindParams returns e with every Param whose value is provided replaced by
// the corresponding constant (vals[0] binds $1). Params beyond len(vals)
// are left in place and fail at Eval time; expressions without placeholders
// are returned unchanged (no copy).
func BindParams(e Expr, vals []value.Value) Expr {
	if e == nil || len(vals) == 0 || !HasParams(e) {
		return e
	}
	return rewriteParams(e, vals)
}

func rewriteParams(e Expr, vals []value.Value) Expr {
	switch x := e.(type) {
	case Param:
		if x.Idx >= 1 && x.Idx <= len(vals) {
			return Const{V: vals[x.Idx-1]}
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
