package tuple

import (
	"testing"

	"talign/internal/interval"
	"talign/internal/value"
)

func tup(ts, te int64, vals ...value.Value) Tuple {
	return New(interval.New(ts, te), vals...)
}

func TestValueAndFullEquality(t *testing.T) {
	a := tup(0, 5, value.NewString("x"), value.NewInt(1))
	b := tup(3, 9, value.NewString("x"), value.NewInt(1))
	c := tup(0, 5, value.NewString("x"), value.NewInt(2))
	if !a.ValsEqual(b) {
		t.Fatal("value equivalence ignores time")
	}
	if a.Equal(b) {
		t.Fatal("full equality includes time")
	}
	if a.ValsEqual(c) {
		t.Fatal("different values are not equivalent")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone must equal original")
	}
	// ω equals ω under grouping equality.
	d := tup(0, 5, value.Null)
	e := tup(0, 5, value.Null)
	if !d.ValsEqual(e) {
		t.Fatal("ω = ω for grouping")
	}
}

func TestCompareOrder(t *testing.T) {
	a := tup(0, 5, value.NewString("a"))
	b := tup(0, 5, value.NewString("b"))
	c := tup(1, 5, value.NewString("a"))
	if a.Compare(b) >= 0 {
		t.Fatal("value order first")
	}
	if a.Compare(c) >= 0 {
		t.Fatal("time breaks ties")
	}
	if a.CompareVals(c) != 0 {
		t.Fatal("CompareVals ignores time")
	}
	short := Tuple{Vals: a.Vals[:0]}
	if short.Compare(a) >= 0 {
		t.Fatal("shorter tuple sorts first")
	}
}

func TestConcatWithTAndPad(t *testing.T) {
	a := tup(0, 5, value.NewString("x"))
	b := tup(2, 7, value.NewInt(9))
	c := a.Concat(b, interval.New(2, 5))
	if c.Arity() != 2 || c.T != interval.New(2, 5) {
		t.Fatalf("concat: %v", c)
	}
	w := a.WithT(interval.New(1, 2))
	if w.T != interval.New(1, 2) || !w.ValsEqual(a) {
		t.Fatalf("withT: %v", w)
	}
	p := NullPad(3, interval.New(0, 1))
	if p.Arity() != 3 || !p.Vals[0].IsNull() {
		t.Fatalf("pad: %v", p)
	}
}

func TestStringRendering(t *testing.T) {
	a := tup(0, 5, value.NewString("x"), value.Null)
	if got := a.String(); got != "(x, ω) [0, 5)" {
		t.Fatalf("string: %q", got)
	}
	nontemporal := Tuple{Vals: []value.Value{value.NewInt(1)}}
	if got := nontemporal.String(); got != "(1)" {
		t.Fatalf("nontemporal string: %q", got)
	}
}
