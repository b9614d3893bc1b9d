package value

import (
	"testing"
	"testing/quick"

	"talign/internal/interval"
)

func TestKindsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "ω"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("hi"), KindString, "hi"},
		{NewInterval(interval.New(1, 4)), KindInterval, "[1, 4)"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind %v want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("kind %v: string %q want %q", c.kind, c.v.String(), c.str)
		}
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
	if NewBool(true).Bool() != true {
		t.Error("bool accessor")
	}
	if NewInt(42).Int() != 42 {
		t.Error("int accessor")
	}
	if NewFloat(1.5).Float() != 1.5 {
		t.Error("float accessor")
	}
	if NewString("s").Str() != "s" {
		t.Error("string accessor")
	}
	if NewInterval(interval.New(2, 3)).Interval() != interval.New(2, 3) {
		t.Error("interval accessor")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on a string must panic")
		}
	}()
	NewString("x").Int()
}

func TestCompareSemantics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(3.0), 0},  // cross numeric equality
		{NewFloat(2.5), NewInt(3), -1}, // cross numeric order
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewInt(0), -1}, // kind rank: bool < numeric
		{NewInt(5), NewString(""), -1}, // numeric < string
		{NewString("z"), NewInterval(interval.New(0, 1)), -1},
		{NewInterval(interval.New(0, 2)), NewInterval(interval.New(0, 3)), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v cmp %v: got %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt(4).AsFloat(); !ok || f != 4 {
		t.Error("int AsFloat")
	}
	if f, ok := NewFloat(4.5).AsFloat(); !ok || f != 4.5 {
		t.Error("float AsFloat")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string AsFloat must fail")
	}
}

// Property: Compare is antisymmetric and Equal ⇔ Compare==0.
func TestPropCompareAntisymmetric(t *testing.T) {
	mk := func(sel uint8, i int16, s string) Value {
		switch sel % 5 {
		case 0:
			return Null
		case 1:
			return NewBool(i%2 == 0)
		case 2:
			return NewInt(int64(i))
		case 3:
			return NewFloat(float64(i) / 2)
		default:
			return NewString(s)
		}
	}
	f := func(s1, s2 uint8, i1, i2 int16, t1, t2 string) bool {
		a, b := mk(s1, i1, t1), mk(s2, i2, t2)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		return a.Equal(b) == (a.Compare(b) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", KindInterval: "period",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d: %q want %q", k, k.String(), want)
		}
	}
	if !KindInt.Numeric() || !KindFloat.Numeric() || KindString.Numeric() {
		t.Error("Numeric misbehaves")
	}
}
