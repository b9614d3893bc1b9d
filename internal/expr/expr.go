// Package expr implements the scalar expression language used for θ
// conditions, projections and aggregate arguments: column references,
// constants, comparisons, boolean connectives (Kleene three-valued logic),
// arithmetic, and the interval functions of the paper's examples (DUR,
// PERIOD, OVERLAPS, ...). Expressions reference the evaluating tuple's own
// valid time through TStart/TEnd/TPeriod, which is how reduction rules
// express conditions such as r.T = s.T after alignment.
package expr

import (
	"fmt"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/value"
)

// Env is the evaluation environment: the (possibly concatenated) row and
// its valid time. The row is Vals, or, when L is set, read in place from
// batches: columns [0, len(L.Cols)) are L's physical row LRow, the rest R's
// physical row RRow (the right half of a join pair; R is nil for one row).
type Env struct {
	Vals       []value.Value
	T          interval.Interval
	L, R       *colbatch.Batch
	LRow, RRow int
}

// Expr is a scalar expression. Expressions are immutable after Bind.
type Expr interface {
	fmt.Stringer
	// Bind resolves column names against s and checks types; it returns a
	// bound copy of the expression.
	Bind(s schema.Schema) (Expr, error)
	// Type returns the static result kind (valid after Bind; named columns
	// report KindNull before binding).
	Type() value.Kind
	// Eval evaluates the expression; ω propagates per SQL-style semantics.
	Eval(env *Env) (value.Value, error)
}

// ---------------------------------------------------------------- constants

// Const is a literal value.
type Const struct{ V value.Value }

// Bool builds a boolean literal expression.
func Bool(b bool) Expr { return Const{value.NewBool(b)} }

// Int builds an integer literal expression.
func Int(i int64) Expr { return Const{value.NewInt(i)} }

// Float builds a float literal expression.
func Float(f float64) Expr { return Const{value.NewFloat(f)} }

// Str builds a string literal expression.
func Str(s string) Expr { return Const{value.NewString(s)} }

// Null is the ω literal.
var Null Expr = Const{value.Null}

func (c Const) Bind(schema.Schema) (Expr, error) { return c, nil }
func (c Const) Type() value.Kind                 { return c.V.Kind() }
func (c Const) Eval(*Env) (value.Value, error)   { return c.V, nil }
func (c Const) String() string                   { return c.V.String() }

// ------------------------------------------------------------------ columns

// Col is a named column reference, resolved by Bind.
type Col struct{ Name string }

// C returns a named column reference.
func C(name string) Expr { return Col{Name: name} }

func (c Col) Bind(s schema.Schema) (Expr, error) {
	i := s.Index(c.Name)
	if i < 0 {
		return nil, fmt.Errorf("expr: unknown column %q in %s", c.Name, s)
	}
	return ColIdx{Idx: i, Typ: s.Attrs[i].Type, Name: c.Name}, nil
}
func (c Col) Type() value.Kind { return value.KindNull }
func (c Col) Eval(*Env) (value.Value, error) {
	return value.Null, fmt.Errorf("expr: unbound column %q", c.Name)
}
func (c Col) String() string { return c.Name }

// ColIdx is a positional column reference (already bound).
type ColIdx struct {
	Idx  int
	Typ  value.Kind
	Name string // optional, for display
}

// CI returns a positional column reference of the given type.
func CI(idx int, typ value.Kind) Expr { return ColIdx{Idx: idx, Typ: typ} }

func (c ColIdx) Bind(s schema.Schema) (Expr, error) {
	if c.Idx < 0 || c.Idx >= s.Len() {
		return nil, fmt.Errorf("expr: column #%d out of range for %s", c.Idx, s)
	}
	return ColIdx{Idx: c.Idx, Typ: s.Attrs[c.Idx].Type, Name: s.Attrs[c.Idx].Name}, nil
}
func (c ColIdx) Type() value.Kind { return c.Typ }
func (c ColIdx) Eval(env *Env) (value.Value, error) {
	if env.L == nil {
		if c.Idx < len(env.Vals) {
			return env.Vals[c.Idx], nil
		}
	} else if i := c.Idx - len(env.L.Cols); i < 0 {
		return env.L.Cols[c.Idx].Value(env.LRow), nil
	} else if env.R != nil && i < len(env.R.Cols) {
		return env.R.Cols[i].Value(env.RRow), nil
	}
	return value.Null, fmt.Errorf("expr: column #%d out of range at runtime", c.Idx)
}
func (c ColIdx) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// ------------------------------------------------------- own-tuple valid time

// TStart evaluates to the tuple's own T.Ts as int.
type TStart struct{}

// TEnd evaluates to the tuple's own T.Te as int.
type TEnd struct{}

// TPeriod evaluates to the tuple's own T as a period value.
type TPeriod struct{}

func (TStart) Bind(schema.Schema) (Expr, error) { return TStart{}, nil }
func (TStart) Type() value.Kind                 { return value.KindInt }
func (TStart) Eval(env *Env) (value.Value, error) {
	return value.NewInt(env.T.Ts), nil
}
func (TStart) String() string { return "TS" }

func (TEnd) Bind(schema.Schema) (Expr, error) { return TEnd{}, nil }
func (TEnd) Type() value.Kind                 { return value.KindInt }
func (TEnd) Eval(env *Env) (value.Value, error) {
	return value.NewInt(env.T.Te), nil
}
func (TEnd) String() string { return "TE" }

func (TPeriod) Bind(schema.Schema) (Expr, error) { return TPeriod{}, nil }
func (TPeriod) Type() value.Kind                 { return value.KindInterval }
func (TPeriod) Eval(env *Env) (value.Value, error) {
	return value.NewInterval(env.T), nil
}
func (TPeriod) String() string { return "T" }

// -------------------------------------------------------------- comparisons

// CmpOp enumerates comparison operators.
type CmpOp uint8

// The comparison operators, in SQL spelling order (=, <>, <, <=, >, >=).
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Holds reports whether a Compare result c (-1, 0 or 1) satisfies op.
func (op CmpOp) Holds(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	}
	return c >= 0 // GE
}

// Flip mirrors op across swapped operands: x op y is y op.Flip() x.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op // EQ, NE are symmetric
}

// Cmp compares two expressions; any ω operand yields ω (unknown).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eq builds l = r.
func Eq(l, r Expr) Expr { return Cmp{EQ, l, r} }

// Ne builds l <> r.
func Ne(l, r Expr) Expr { return Cmp{NE, l, r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return Cmp{LT, l, r} }

// Le builds l <= r.
func Le(l, r Expr) Expr { return Cmp{LE, l, r} }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return Cmp{GT, l, r} }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return Cmp{GE, l, r} }

func (c Cmp) Bind(s schema.Schema) (Expr, error) {
	l, err := c.L.Bind(s)
	if err != nil {
		return nil, err
	}
	r, err := c.R.Bind(s)
	if err != nil {
		return nil, err
	}
	return Cmp{c.Op, l, r}, nil
}
func (c Cmp) Type() value.Kind { return value.KindBool }
func (c Cmp) Eval(env *Env) (value.Value, error) {
	l, err := c.L.Eval(env)
	if err != nil {
		return value.Null, err
	}
	r, err := c.R.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	return value.NewBool(c.Op.Holds(l.Compare(r))), nil
}
func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// --------------------------------------------------------- boolean operators

// BoolOp enumerates boolean connectives.
type BoolOp uint8

// The boolean connectives.
const (
	AndOp BoolOp = iota
	OrOp
)

// Logic is AND/OR with Kleene three-valued semantics.
type Logic struct {
	Op   BoolOp
	L, R Expr
}

// And folds the operands into a conjunction (empty AND is TRUE).
func And(es ...Expr) Expr { return fold(AndOp, es) }

// Or folds the operands into a disjunction (empty OR is FALSE).
func Or(es ...Expr) Expr { return fold(OrOp, es) }

func fold(op BoolOp, es []Expr) Expr {
	if len(es) == 0 {
		return Bool(op == AndOp) // empty AND = true, empty OR = false
	}
	e := es[0]
	for _, n := range es[1:] {
		e = Logic{op, e, n}
	}
	return e
}

func (l Logic) Bind(s schema.Schema) (Expr, error) {
	a, err := l.L.Bind(s)
	if err != nil {
		return nil, err
	}
	b, err := l.R.Bind(s)
	if err != nil {
		return nil, err
	}
	return Logic{l.Op, a, b}, nil
}
func (l Logic) Type() value.Kind { return value.KindBool }
func (l Logic) Eval(env *Env) (value.Value, error) {
	a, err := l.L.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if err := l.operand(a); err != nil {
		return value.Null, err
	}
	// Short circuit where Kleene logic allows it.
	if !a.IsNull() {
		if l.Op == AndOp && !a.Bool() {
			return value.NewBool(false), nil
		}
		if l.Op == OrOp && a.Bool() {
			return value.NewBool(true), nil
		}
	}
	b, err := l.R.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if err := l.operand(b); err != nil {
		return value.Null, err
	}
	if !b.IsNull() {
		if l.Op == AndOp && !b.Bool() {
			return value.NewBool(false), nil
		}
		if l.Op == OrOp && b.Bool() {
			return value.NewBool(true), nil
		}
	}
	if a.IsNull() || b.IsNull() {
		return value.Null, nil
	}
	if l.Op == AndOp {
		return value.NewBool(a.Bool() && b.Bool()), nil
	}
	return value.NewBool(a.Bool() || b.Bool()), nil
}

// operand rejects an operand value that is neither a truth value nor ω
// (the SQL analyzer rejects the expression; plans built through the Go API
// get here).
func (l Logic) operand(v value.Value) error {
	if v.IsNull() || v.Kind() == value.KindBool {
		return nil
	}
	return fmt.Errorf("expr: %s applied to %s", l.opName(), v.Kind())
}

func (l Logic) opName() string {
	if l.Op == OrOp {
		return "OR"
	}
	return "AND"
}
func (l Logic) String() string { return fmt.Sprintf("(%s %s %s)", l.L, l.opName(), l.R) }

// Not negates a boolean; ω stays ω.
type Not struct{ X Expr }

// Neg builds NOT x.
func Neg(x Expr) Expr { return Not{x} }

func (n Not) Bind(s schema.Schema) (Expr, error) {
	x, err := n.X.Bind(s)
	if err != nil {
		return nil, err
	}
	return Not{x}, nil
}
func (n Not) Type() value.Kind { return value.KindBool }
func (n Not) Eval(env *Env) (value.Value, error) {
	x, err := n.X.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if x.IsNull() {
		return value.Null, nil
	}
	if x.Kind() != value.KindBool {
		return value.Null, fmt.Errorf("expr: NOT applied to %s", x.Kind())
	}
	return value.NewBool(!x.Bool()), nil
}
func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.X) }

// IsNull tests for ω (IS NULL / IS NOT NULL).
type IsNull struct {
	X      Expr
	Negate bool
}

func (n IsNull) Bind(s schema.Schema) (Expr, error) {
	x, err := n.X.Bind(s)
	if err != nil {
		return nil, err
	}
	return IsNull{x, n.Negate}, nil
}
func (n IsNull) Type() value.Kind { return value.KindBool }
func (n IsNull) Eval(env *Env) (value.Value, error) {
	x, err := n.X.Eval(env)
	if err != nil {
		return value.Null, err
	}
	return value.NewBool(x.IsNull() != n.Negate), nil
}
func (n IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// Between is lo <= x AND x <= hi with ω propagation.
type Between struct{ X, Lo, Hi Expr }

func (b Between) Bind(s schema.Schema) (Expr, error) {
	x, err := b.X.Bind(s)
	if err != nil {
		return nil, err
	}
	lo, err := b.Lo.Bind(s)
	if err != nil {
		return nil, err
	}
	hi, err := b.Hi.Bind(s)
	if err != nil {
		return nil, err
	}
	return Between{x, lo, hi}, nil
}
func (b Between) Type() value.Kind { return value.KindBool }

// Eval is Logic's AND of the two comparisons, spelled out: boxing them into
// a Logic would allocate on every row.
func (b Between) Eval(env *Env) (value.Value, error) {
	lo, err := Cmp{LE, b.Lo, b.X}.Eval(env)
	if err != nil || !lo.IsNull() && !lo.Bool() {
		return lo, err
	}
	hi, err := Cmp{LE, b.X, b.Hi}.Eval(env)
	if err == nil && lo.IsNull() && (hi.IsNull() || hi.Bool()) {
		return lo, nil // ω AND (ω or true)
	}
	return hi, err
}
func (b Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.X, b.Lo, b.Hi)
}

// --------------------------------------------------------------- arithmetic

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// The arithmetic operators (+, -, *, /, %).
const (
	AddOp ArithOp = iota
	SubOp
	MulOp
	DivOp
	ModOp
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith applies int/float arithmetic; any ω operand yields ω; division by
// zero yields ω (the engine never aborts a scan mid-way on data errors).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Add builds l + r.
func Add(l, r Expr) Expr { return Arith{AddOp, l, r} }

// Sub builds l - r.
func Sub(l, r Expr) Expr { return Arith{SubOp, l, r} }

// Mul builds l * r.
func Mul(l, r Expr) Expr { return Arith{MulOp, l, r} }

// Div builds l / r (division by zero yields ω).
func Div(l, r Expr) Expr { return Arith{DivOp, l, r} }

// Mod builds l % r over integers (zero modulus yields ω).
func Mod(l, r Expr) Expr { return Arith{ModOp, l, r} }

func (a Arith) Bind(s schema.Schema) (Expr, error) {
	l, err := a.L.Bind(s)
	if err != nil {
		return nil, err
	}
	r, err := a.R.Bind(s)
	if err != nil {
		return nil, err
	}
	return Arith{a.Op, l, r}, nil
}
func (a Arith) Type() value.Kind {
	if a.L.Type() == value.KindFloat || a.R.Type() == value.KindFloat {
		return value.KindFloat
	}
	return value.KindInt
}
func (a Arith) Eval(env *Env) (value.Value, error) {
	l, err := a.L.Eval(env)
	if err != nil {
		return value.Null, err
	}
	r, err := a.R.Eval(env)
	if err != nil {
		return value.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		x, y := l.Int(), r.Int()
		switch a.Op {
		case AddOp:
			return value.NewInt(x + y), nil
		case SubOp:
			return value.NewInt(x - y), nil
		case MulOp:
			return value.NewInt(x * y), nil
		case DivOp:
			if y == 0 {
				return value.Null, nil
			}
			return value.NewInt(x / y), nil
		case ModOp:
			if y == 0 {
				return value.Null, nil
			}
			return value.NewInt(x % y), nil
		}
	}
	x, okx := l.AsFloat()
	y, oky := r.AsFloat()
	if !okx || !oky {
		return value.Null, fmt.Errorf("expr: %s applied to %s and %s", a.Op, l.Kind(), r.Kind())
	}
	switch a.Op {
	case AddOp:
		return value.NewFloat(x + y), nil
	case SubOp:
		return value.NewFloat(x - y), nil
	case MulOp:
		return value.NewFloat(x * y), nil
	case DivOp:
		if y == 0 {
			return value.Null, nil
		}
		return value.NewFloat(x / y), nil
	case ModOp:
		return value.Null, fmt.Errorf("expr: %% requires integers")
	}
	return value.Null, fmt.Errorf("expr: unknown arithmetic op")
}
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// ---------------------------------------------------------------- functions

// Func is a built-in scalar function call.
type Func struct {
	Name string // upper case
	Args []Expr
}

// Call builds a function call; the name is case-insensitive.
func Call(name string, args ...Expr) Expr {
	return Func{Name: strings.ToUpper(name), Args: args}
}

// Dur returns DUR(p): the duration of a period value (the paper's examples
// use DUR(R.T) over propagated timestamps).
func Dur(p Expr) Expr { return Call("DUR", p) }

func (f Func) Bind(s schema.Schema) (Expr, error) {
	args := make([]Expr, len(f.Args))
	for i, a := range f.Args {
		b, err := a.Bind(s)
		if err != nil {
			return nil, err
		}
		args[i] = b
	}
	out := Func{Name: f.Name, Args: args}
	if _, err := funcInfo(f.Name, len(args)); err != nil {
		return nil, err
	}
	return out, nil
}

func (f Func) Type() value.Kind {
	info, err := funcInfo(f.Name, len(f.Args))
	if err != nil {
		return value.KindNull
	}
	return info
}

func funcInfo(name string, arity int) (value.Kind, error) {
	switch name {
	case "DUR":
		if arity == 1 || arity == 2 {
			return value.KindInt, nil
		}
	case "PERIOD":
		if arity == 2 {
			return value.KindInterval, nil
		}
	case "TSTART", "TEND":
		if arity == 1 {
			return value.KindInt, nil
		}
	case "OVERLAPS", "CONTAINS":
		if arity == 2 {
			return value.KindBool, nil
		}
	case "GREATEST", "LEAST":
		if arity >= 1 {
			return value.KindInt, nil
		}
	case "ABS":
		if arity == 1 {
			return value.KindInt, nil
		}
	}
	if k, ok := registeredInfo(name, arity); ok {
		return k, nil
	}
	return value.KindNull, fmt.Errorf("expr: unknown function %s/%d", name, arity)
}

// CheckCall reports whether a function named name (case-insensitive),
// built-in or registered, takes arity arguments. Eval indexes its
// arguments unchecked, so whoever builds a Func from outside input calls
// this first.
func CheckCall(name string, arity int) error {
	_, err := funcInfo(strings.ToUpper(name), arity)
	return err
}

func (f Func) Eval(env *Env) (value.Value, error) {
	// Arguments stay on the stack for the built-in arities (all ≤ 2
	// except GREATEST/LEAST): Eval runs once per row in projections.
	var buf [4]value.Value
	var args []value.Value
	if len(f.Args) <= len(buf) {
		args = buf[:len(f.Args)]
	} else {
		args = make([]value.Value, len(f.Args))
	}
	for i, a := range f.Args {
		v, err := a.Eval(env)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	for _, a := range args {
		if a.IsNull() {
			return value.Null, nil
		}
	}
	switch f.Name {
	case "DUR":
		if len(args) == 1 {
			return value.NewInt(args[0].Interval().Duration()), nil
		}
		return value.NewInt(args[1].Int() - args[0].Int()), nil
	case "PERIOD":
		ts, te := args[0].Int(), args[1].Int()
		if ts >= te {
			return value.Null, nil
		}
		return value.NewInterval(interval.Interval{Ts: ts, Te: te}), nil
	case "TSTART":
		return value.NewInt(args[0].Interval().Ts), nil
	case "TEND":
		return value.NewInt(args[0].Interval().Te), nil
	case "OVERLAPS":
		return value.NewBool(args[0].Interval().Overlaps(args[1].Interval())), nil
	case "CONTAINS":
		return value.NewBool(args[0].Interval().ContainsInterval(args[1].Interval())), nil
	case "GREATEST", "LEAST":
		best := args[0]
		for _, a := range args[1:] {
			c := a.Compare(best)
			if (f.Name == "GREATEST" && c > 0) || (f.Name == "LEAST" && c < 0) {
				best = a
			}
		}
		return best, nil
	case "ABS":
		switch args[0].Kind() {
		case value.KindInt:
			x := args[0].Int()
			if x < 0 {
				x = -x
			}
			return value.NewInt(x), nil
		case value.KindFloat:
			x := args[0].Float()
			if x < 0 {
				x = -x
			}
			return value.NewFloat(x), nil
		}
		return value.Null, fmt.Errorf("expr: ABS of %s", args[0].Kind())
	}
	if fn, ok := lookupFunc(f.Name); ok {
		// Copy off the stack buffer: the registered Eval may retain its
		// argument slice, and handing it `args` directly would force the
		// buffer to escape on the built-in fast path too.
		heap := make([]value.Value, len(args))
		copy(heap, args)
		return fn.Eval(heap)
	}
	return value.Null, fmt.Errorf("expr: unknown function %s", f.Name)
}

func (f Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ------------------------------------------------------------------ helpers

// EvalBool evaluates e as a predicate: ω (unknown) and false both report
// false, matching WHERE/ON semantics.
func EvalBool(e Expr, env *Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != value.KindBool {
		return false, fmt.Errorf("expr: predicate %s evaluated to %s, want bool", e, v.Kind())
	}
	return v.Bool(), nil
}

// Conjuncts flattens nested ANDs into a list.
func Conjuncts(e Expr) []Expr {
	if l, ok := e.(Logic); ok && l.Op == AndOp {
		return append(Conjuncts(l.L), Conjuncts(l.R)...)
	}
	if c, ok := e.(Const); ok && c.V.Kind() == value.KindBool && c.V.Bool() {
		return nil // drop literal TRUE
	}
	return []Expr{e}
}

// Shift rewrites every positional column reference by adding delta to its
// index (used when an expression over one input is evaluated against a
// concatenated join row).
func Shift(e Expr, delta int) Expr {
	switch x := e.(type) {
	case ColIdx:
		return ColIdx{Idx: x.Idx + delta, Typ: x.Typ, Name: x.Name}
	case Cmp:
		return Cmp{x.Op, Shift(x.L, delta), Shift(x.R, delta)}
	case Logic:
		return Logic{x.Op, Shift(x.L, delta), Shift(x.R, delta)}
	case Not:
		return Not{Shift(x.X, delta)}
	case IsNull:
		return IsNull{Shift(x.X, delta), x.Negate}
	case Between:
		return Between{Shift(x.X, delta), Shift(x.Lo, delta), Shift(x.Hi, delta)}
	case Arith:
		return Arith{x.Op, Shift(x.L, delta), Shift(x.R, delta)}
	case Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Shift(a, delta)
		}
		return Func{Name: x.Name, Args: args}
	}
	return e
}

// Remap rewrites every positional column reference through fn (used to
// re-target a condition from Concat(r, s) to Concat(s, r)).
func Remap(e Expr, fn func(int) int) Expr {
	switch x := e.(type) {
	case ColIdx:
		return ColIdx{Idx: fn(x.Idx), Typ: x.Typ, Name: x.Name}
	case Cmp:
		return Cmp{x.Op, Remap(x.L, fn), Remap(x.R, fn)}
	case Logic:
		return Logic{x.Op, Remap(x.L, fn), Remap(x.R, fn)}
	case Not:
		return Not{Remap(x.X, fn)}
	case IsNull:
		return IsNull{Remap(x.X, fn), x.Negate}
	case Between:
		return Between{Remap(x.X, fn), Remap(x.Lo, fn), Remap(x.Hi, fn)}
	case Arith:
		return Arith{x.Op, Remap(x.L, fn), Remap(x.R, fn)}
	case Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Remap(a, fn)
		}
		return Func{Name: x.Name, Args: args}
	}
	return e
}

// UsesT reports whether e references the evaluating tuple's own valid time
// (TStart/TEnd/TPeriod). The temporal algebra rejects such conditions: per
// extended snapshot reducibility, conditions over timestamps must go
// through propagated attributes instead.
func UsesT(e Expr) bool { return usesT(e) }

// MaxColIdx returns the largest positional column index referenced by e, or
// -1 if none.
func MaxColIdx(e Expr) int {
	max := -1
	walk(e, func(x Expr) {
		if c, ok := x.(ColIdx); ok && c.Idx > max {
			max = c.Idx
		}
	})
	return max
}

// MinColIdx returns the smallest positional column index referenced by e,
// or -1 if none.
func MinColIdx(e Expr) int {
	min := -1
	walk(e, func(x Expr) {
		if c, ok := x.(ColIdx); ok && (min == -1 || c.Idx < min) {
			min = c.Idx
		}
	})
	return min
}

func walk(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case Cmp:
		walk(x.L, fn)
		walk(x.R, fn)
	case Logic:
		walk(x.L, fn)
		walk(x.R, fn)
	case Not:
		walk(x.X, fn)
	case IsNull:
		walk(x.X, fn)
	case Between:
		walk(x.X, fn)
		walk(x.Lo, fn)
		walk(x.Hi, fn)
	case Arith:
		walk(x.L, fn)
		walk(x.R, fn)
	case Func:
		for _, a := range x.Args {
			walk(a, fn)
		}
	}
}

// EquiPair is an equality conjunct l = r where l references only columns of
// the left input (indexes < split) and r only columns of the right input
// (indexes >= split, reported relative to the right input).
type EquiPair struct {
	Left, Right Expr
}

// SplitJoinCondition partitions a join condition bound against the
// concatenated schema into equi-join pairs and a residual condition. split
// is the arity of the left input. The residual is nil when everything was
// extracted.
func SplitJoinCondition(cond Expr, split int) (pairs []EquiPair, residual Expr) {
	var rest []Expr
	for _, c := range Conjuncts(cond) {
		if cmp, ok := c.(Cmp); ok && cmp.Op == EQ {
			lmin, lmax := MinColIdx(cmp.L), MaxColIdx(cmp.L)
			rmin, rmax := MinColIdx(cmp.R), MaxColIdx(cmp.R)
			lOnLeft := lmin >= 0 && lmax < split && !usesT(cmp.L)
			rOnRight := rmin >= split && !usesT(cmp.R)
			lOnRight := lmin >= split && !usesT(cmp.L)
			rOnLeft := rmin >= 0 && rmax < split && !usesT(cmp.R)
			if lOnLeft && rOnRight {
				pairs = append(pairs, EquiPair{Left: cmp.L, Right: Shift(cmp.R, -split)})
				continue
			}
			if lOnRight && rOnLeft {
				pairs = append(pairs, EquiPair{Left: cmp.R, Right: Shift(cmp.L, -split)})
				continue
			}
		}
		rest = append(rest, c)
	}
	if len(rest) > 0 {
		residual = And(rest...)
	}
	return pairs, residual
}

func usesT(e Expr) bool {
	found := false
	walk(e, func(x Expr) {
		switch x.(type) {
		case TStart, TEnd, TPeriod:
			found = true
		}
	})
	return found
}
