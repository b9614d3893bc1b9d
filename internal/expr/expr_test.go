package expr

import (
	"strings"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/value"
)

func sch() schema.Schema {
	return schema.MustNew(
		schema.Attr{Name: "a", Type: value.KindInt},
		schema.Attr{Name: "b", Type: value.KindString},
		schema.Attr{Name: "p", Type: value.KindInterval},
	)
}

func env(vals ...value.Value) *Env {
	return &Env{Vals: vals, T: interval.New(10, 20)}
}

func evalOn(t *testing.T, e Expr, en *Env) value.Value {
	t.Helper()
	bound, err := e.Bind(sch())
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	v, err := bound.Eval(en)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestColumnBindingAndEval(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.NewInterval(interval.New(1, 5)))
	if got := evalOn(t, C("a"), en); got.Int() != 7 {
		t.Fatalf("col a: %v", got)
	}
	if got := evalOn(t, C("B"), en); got.Str() != "x" {
		t.Fatalf("case-insensitive col b: %v", got)
	}
	if _, err := C("zz").Bind(sch()); err == nil {
		t.Fatal("unknown column must fail to bind")
	}
	if _, err := (Col{Name: "a"}).Eval(en); err == nil {
		t.Fatal("unbound column must fail to eval")
	}
	// In place: columns [0, 2) are L's row LRow, the rest R's row RRow.
	ts := []int64{0, 0}
	l := colbatch.NewFromParts(sch().Project([]int{0, 1}), []colbatch.Vec{colbatch.VecFromInts([]int64{7, 8}, nil), colbatch.VecFromStrs([]string{"x", "y"}, nil)}, ts, ts)
	r := colbatch.NewFromParts(sch().Project([]int{0}), []colbatch.Vec{colbatch.VecFromInts([]int64{3, 4}, nil)}, ts, ts)
	pair := &Env{L: l, LRow: 1, R: r}
	for i, want := range []string{"8", "y", "3"} {
		if got, err := CI(i, value.KindNull).Eval(pair); err != nil || got.String() != want {
			t.Errorf("#%d of the pair = %v, %v; want %s", i, got, err, want)
		}
	}
	if _, err := CI(3, value.KindInt).Eval(pair); err == nil {
		t.Error("a column past R must fail to eval")
	}
	if _, err := CI(2, value.KindInt).Eval(&Env{L: l}); err == nil {
		t.Error("a column past L must fail to eval without R")
	}
}

func TestComparisonsAndNulls(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.Null)
	if got := evalOn(t, Lt(C("a"), Int(9)), en); !got.Bool() {
		t.Fatal("7 < 9")
	}
	if got := evalOn(t, Eq(C("a"), Int(7)), en); !got.Bool() {
		t.Fatal("7 = 7")
	}
	// ω comparisons are unknown.
	if got := evalOn(t, Eq(C("p"), C("p")), en); !got.IsNull() {
		t.Fatal("ω = ω must be unknown")
	}
	ok, err := EvalBool(Cmp{EQ, Null, Null}, en)
	if err != nil || ok {
		t.Fatal("unknown predicates are false in WHERE")
	}
}

func TestKleeneLogic(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.Null)
	unknown := Eq(Null, Int(1))
	cases := []struct {
		name string
		e    Expr
		want any // true, false or nil for unknown
	}{
		{"false AND unknown", And(Bool(false), unknown), false},
		{"unknown AND false", And(unknown, Bool(false)), false},
		{"true AND unknown", And(Bool(true), unknown), nil},
		{"true OR unknown", Or(Bool(true), unknown), true},
		{"unknown OR true", Or(unknown, Bool(true)), true},
		{"false OR unknown", Or(Bool(false), unknown), nil},
		{"NOT unknown", Neg(unknown), nil},
		{"NOT true", Neg(Bool(true)), false},
		{"empty AND", And(), true},
		{"empty OR", Or(), false},
	}
	for _, c := range cases {
		got := evalOn(t, c.e, en)
		switch want := c.want.(type) {
		case bool:
			if got.IsNull() || got.Bool() != want {
				t.Errorf("%s: got %v want %v", c.name, got, want)
			}
		case nil:
			if !got.IsNull() {
				t.Errorf("%s: got %v want unknown", c.name, got)
			}
		}
	}
	// An operand that is no truth value is an error, not a panic, on either
	// side and under NOT.
	for e, want := range map[Expr]string{
		And(Bool(true), Str("s")): "expr: AND applied to string", Or(Int(1), Bool(true)): "expr: OR applied to int",
		Neg(Int(1)): "expr: NOT applied to int",
	} {
		if _, err := e.Eval(en); err == nil || err.Error() != want {
			t.Errorf("%s: Eval error = %v, want %q", e, err, want)
		}
	}
}

func TestIsNullAndBetween(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.Null)
	if got := evalOn(t, IsNull{X: C("p")}, en); !got.Bool() {
		t.Fatal("p IS NULL")
	}
	if got := evalOn(t, IsNull{X: C("a"), Negate: true}, en); !got.Bool() {
		t.Fatal("a IS NOT NULL")
	}
	if got := evalOn(t, Between{X: C("a"), Lo: Int(5), Hi: Int(9)}, en); !got.Bool() {
		t.Fatal("7 BETWEEN 5 AND 9")
	}
	if got := evalOn(t, Between{X: C("a"), Lo: Int(8), Hi: Int(9)}, en); got.Bool() {
		t.Fatal("7 NOT BETWEEN 8 AND 9")
	}
	// Every ω / true / false combination of the two bounds agrees with the
	// AND of the two comparisons.
	for _, lo := range []Expr{Null, Int(5), Int(8)} {
		for _, hi := range []Expr{Null, Int(6), Int(9)} {
			got := evalOn(t, Between{X: C("a"), Lo: lo, Hi: hi}, en)
			want := evalOn(t, And(Le(lo, C("a")), Le(C("a"), hi)), en)
			if !got.Equal(want) {
				t.Errorf("7 BETWEEN %s AND %s = %v, want %v", lo, hi, got, want)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.Null)
	if got := evalOn(t, Add(C("a"), Int(3)), en); got.Int() != 10 {
		t.Fatalf("7+3: %v", got)
	}
	if got := evalOn(t, Mul(Int(4), Float(2.5)), en); got.Float() != 10 {
		t.Fatalf("4*2.5: %v", got)
	}
	if got := evalOn(t, Div(Int(7), Int(2)), en); got.Int() != 3 {
		t.Fatalf("integer division: %v", got)
	}
	if got := evalOn(t, Div(Int(7), Int(0)), en); !got.IsNull() {
		t.Fatalf("division by zero must be ω: %v", got)
	}
	if got := evalOn(t, Mod(Int(7), Int(4)), en); got.Int() != 3 {
		t.Fatalf("7%%4: %v", got)
	}
	if got := evalOn(t, Sub(Null, Int(1)), en); !got.IsNull() {
		t.Fatalf("ω-1 must be ω: %v", got)
	}
}

func TestIntervalFunctions(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.NewInterval(interval.New(3, 9)))
	if got := evalOn(t, Dur(C("p")), en); got.Int() != 6 {
		t.Fatalf("DUR: %v", got)
	}
	if got := evalOn(t, Call("DUR", Int(4), Int(9)), en); got.Int() != 5 {
		t.Fatalf("DUR/2: %v", got)
	}
	if got := evalOn(t, Call("PERIOD", Int(1), Int(4)), en); got.Interval() != interval.New(1, 4) {
		t.Fatalf("PERIOD: %v", got)
	}
	if got := evalOn(t, Call("PERIOD", Int(4), Int(4)), en); !got.IsNull() {
		t.Fatalf("empty PERIOD must be ω: %v", got)
	}
	if got := evalOn(t, Call("TSTART", C("p")), en); got.Int() != 3 {
		t.Fatalf("TSTART: %v", got)
	}
	if got := evalOn(t, Call("TEND", C("p")), en); got.Int() != 9 {
		t.Fatalf("TEND: %v", got)
	}
	if got := evalOn(t, Call("OVERLAPS", C("p"), Const{value.NewInterval(interval.New(8, 12))}), en); !got.Bool() {
		t.Fatalf("OVERLAPS: %v", got)
	}
	if got := evalOn(t, Call("CONTAINS", C("p"), Const{value.NewInterval(interval.New(4, 6))}), en); !got.Bool() {
		t.Fatalf("CONTAINS: %v", got)
	}
	if got := evalOn(t, Call("GREATEST", Int(3), Int(9), Int(5)), en); got.Int() != 9 {
		t.Fatalf("GREATEST: %v", got)
	}
	if got := evalOn(t, Call("LEAST", Int(3), Int(9), Int(5)), en); got.Int() != 3 {
		t.Fatalf("LEAST: %v", got)
	}
	if got := evalOn(t, Call("ABS", Int(-4)), en); got.Int() != 4 {
		t.Fatalf("ABS: %v", got)
	}
	if _, err := Call("NOPE", Int(1)).Bind(sch()); err == nil {
		t.Fatal("unknown function must fail to bind")
	}
	if _, err := Call("DUR").Bind(sch()); err == nil {
		t.Fatal("wrong arity must fail to bind")
	}
}

func TestOwnTupleTime(t *testing.T) {
	en := env(value.NewInt(7), value.NewString("x"), value.Null)
	if got := evalOn(t, TStart{}, en); got.Int() != 10 {
		t.Fatalf("TS: %v", got)
	}
	if got := evalOn(t, TEnd{}, en); got.Int() != 20 {
		t.Fatalf("TE: %v", got)
	}
	if got := evalOn(t, TPeriod{}, en); got.Interval() != interval.New(10, 20) {
		t.Fatalf("T: %v", got)
	}
	if !UsesT(And(Bool(true), Gt(TEnd{}, Int(0)))) {
		t.Fatal("UsesT must see TEnd")
	}
	if UsesT(Gt(C("a"), Int(0))) {
		t.Fatal("UsesT false positive")
	}
}

func TestConjunctsShiftRemap(t *testing.T) {
	e := And(Eq(CI(0, value.KindInt), CI(2, value.KindInt)), Gt(CI(1, value.KindInt), Int(5)))
	cj := Conjuncts(e)
	if len(cj) != 2 {
		t.Fatalf("conjuncts: %v", cj)
	}
	if len(Conjuncts(Bool(true))) != 0 {
		t.Fatal("literal TRUE must vanish")
	}
	shifted := Shift(e, 10)
	if MinColIdx(shifted) != 10 || MaxColIdx(shifted) != 12 {
		t.Fatalf("shift: min=%d max=%d", MinColIdx(shifted), MaxColIdx(shifted))
	}
	swapped := Remap(e, func(i int) int { return 5 - i })
	if MaxColIdx(swapped) != 5 {
		t.Fatalf("remap: %d", MaxColIdx(swapped))
	}
	if MaxColIdx(Int(1)) != -1 || MinColIdx(Int(1)) != -1 {
		t.Fatal("no columns: -1")
	}
}

func TestSplitJoinCondition(t *testing.T) {
	// Layout: left columns 0..1, right columns 2..3 (split = 2).
	cond := And(
		Eq(CI(0, value.KindInt), CI(2, value.KindInt)),       // equi
		Eq(CI(3, value.KindString), CI(1, value.KindString)), // equi, reversed sides
		Gt(CI(1, value.KindInt), CI(3, value.KindInt)),       // residual
		Gt(TEnd{}, Int(0)), // residual (uses T)
	)
	pairs, residual := SplitJoinCondition(cond, 2)
	if len(pairs) != 2 {
		t.Fatalf("pairs: %v", pairs)
	}
	// Right expressions are rebased to the right input.
	if MaxColIdx(pairs[0].Right) != 0 || MaxColIdx(pairs[1].Right) != 1 {
		t.Fatalf("right rebase wrong: %v", pairs)
	}
	if residual == nil || len(Conjuncts(residual)) != 2 {
		t.Fatalf("residual: %v", residual)
	}
	// No extractable conjuncts.
	pairs2, res2 := SplitJoinCondition(Gt(CI(0, value.KindInt), CI(2, value.KindInt)), 2)
	if len(pairs2) != 0 || res2 == nil {
		t.Fatalf("non-equi split: %v %v", pairs2, res2)
	}
}

func TestStringRendering(t *testing.T) {
	e := And(Eq(C("a"), Int(1)), Between{X: C("a"), Lo: Int(0), Hi: Int(9)})
	s := e.String()
	for _, part := range []string{"a", "=", "AND", "BETWEEN"} {
		if !strings.Contains(s, part) {
			t.Fatalf("rendering missing %q: %s", part, s)
		}
	}
}
