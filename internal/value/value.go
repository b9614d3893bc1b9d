// Package value implements the typed attribute values of the temporal
// relational model. The null value ω (Sec. 1 of the paper) pads the
// non-matching side of outer joins; intervals appear as ordinary values when
// timestamps are propagated by the extend operator (Def. 3).
package value

import (
	"fmt"
	"math"
	"strconv"

	"talign/internal/interval"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

const (
	KindNull Kind = iota // ω
	KindBool
	KindInt
	KindFloat
	KindString
	KindInterval // a propagated timestamp [Ts, Te)
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindInterval:
		return "period"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Numeric reports whether the kind is int or float.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a dynamically typed attribute value. The zero Value is ω (null).
type Value struct {
	kind Kind
	i    int64   // int payload, bool (0/1), interval start
	j    int64   // interval end
	f    float64 // float payload
	s    string  // string payload
}

// Null is the ω value.
var Null = Value{}

// NewBool, NewInt, NewFloat, NewString and NewInterval construct values.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

func NewString(s string) Value { return Value{kind: KindString, s: s} }

func NewInterval(iv interval.Interval) Value {
	return Value{kind: KindInterval, i: iv.Ts, j: iv.Te}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is ω.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; it panics on other kinds.
func (v Value) Bool() bool {
	v.mustBe(KindBool)
	return v.i != 0
}

// Int returns the integer payload; it panics on other kinds.
func (v Value) Int() int64 {
	v.mustBe(KindInt)
	return v.i
}

// Float returns the float payload; it panics on other kinds.
func (v Value) Float() float64 {
	v.mustBe(KindFloat)
	return v.f
}

// Str returns the string payload; it panics on other kinds.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.s
}

// Interval returns the interval payload; it panics on other kinds.
func (v Value) Interval() interval.Interval {
	v.mustBe(KindInterval)
	return interval.Interval{Ts: v.i, Te: v.j}
}

// AsFloat widens int or float to float64 for mixed numeric arithmetic.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s used as %s", v.kind, k))
	}
}

// Equal reports grouping equality: ω = ω, and values of the same kind are
// compared by payload. Int and float compare numerically across kinds so
// that e.g. SUM results group consistently.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare imposes a total order used for sorting, grouping and set
// operations: ω sorts first and equals itself; then bool < int/float <
// string < interval across kinds; numeric kinds compare by exact numeric
// value (int vs float comparisons do not round through float64, so the
// order stays transitive for integers beyond 2^53). Among floats, NaN
// sorts before every other value and equals itself, and -0.0 equals 0.0 —
// the refinements that make Compare a genuine total order, which the
// order-preserving key encoding (AppendKey) depends on.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		switch {
		case vr < or:
			return -1
		default:
			return 1
		}
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return CmpInt64(v.i, o.i)
	case KindInt:
		if o.kind == KindFloat {
			return cmpIntFloat(v.i, o.f)
		}
		return CmpInt64(v.i, o.i)
	case KindFloat:
		if o.kind == KindInt {
			return -cmpIntFloat(o.i, v.f)
		}
		return CmpFloat64(v.f, o.f)
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	case KindInterval:
		return v.Interval().Compare(o.Interval())
	}
	return 0
}

// rank groups kinds into comparison classes: numeric kinds share a class so
// that 1 (int) and 1.0 (float) are equal and adjacent in sort order.
func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindInterval:
		return 4
	}
	return 5
}

// String renders the value; ω prints as the paper's symbol.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "ω"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindInterval:
		return v.Interval().String()
	}
	return "?"
}

// CmpInt64 orders two int64s: -1, 0 or 1.
func CmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CmpFloat64 totally orders float64s: NaN first (NaN == NaN), then the
// usual order; -0.0 == 0.0.
func CmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one NaN.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	}
	return 1
}

// two63 is 2^63 as a float64 (exactly representable).
const two63 = float64(1 << 63)

// cmpIntFloat exactly compares an int64 with a float64 under the total
// order of CmpFloat64 (NaN first). It never rounds i through float64, so
// integers that differ only beyond 2^53 still compare correctly.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 1 // NaN sorts before every integer
	case f >= two63:
		return -1 // covers +Inf
	case f < -two63:
		return 1 // covers -Inf
	}
	// f is finite with floor(f) representable as int64.
	ff := math.Floor(f)
	if fi := int64(ff); i != fi {
		return CmpInt64(i, fi)
	}
	if f > ff {
		return -1 // i == floor(f) < f
	}
	return 0
}
