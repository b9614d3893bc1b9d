// Package tuple implements interval timestamped tuples (Sec. 3.1): a vector
// of nontemporal attribute values plus a single valid-time interval T.
package tuple

import (
	"strings"

	"talign/internal/interval"
	"talign/internal/value"
)

// Tuple is a row of a temporal relation. Vals holds the nontemporal
// attribute values in schema order; T is the tuple's valid time. A zero T
// marks nontemporal intermediate results.
type Tuple struct {
	Vals []value.Value
	T    interval.Interval
}

// New builds a tuple over the given values and interval.
func New(t interval.Interval, vals ...value.Value) Tuple {
	return Tuple{Vals: vals, T: t}
}

// Clone returns a deep copy (the value slice is copied; values are
// immutable).
func (t Tuple) Clone() Tuple {
	vals := make([]value.Value, len(t.Vals))
	copy(vals, t.Vals)
	return Tuple{Vals: vals, T: t.T}
}

// Arity returns the number of nontemporal attributes.
func (t Tuple) Arity() int { return len(t.Vals) }

// ValsEqual reports value equivalence: pairwise equal nontemporal values
// (r.A = r'.A in the paper's notation). ω equals ω.
func (t Tuple) ValsEqual(o Tuple) bool {
	if len(t.Vals) != len(o.Vals) {
		return false
	}
	for i := range t.Vals {
		if !t.Vals[i].Equal(o.Vals[i]) {
			return false
		}
	}
	return true
}

// Equal reports full equality: value equivalence plus identical timestamps.
func (t Tuple) Equal(o Tuple) bool {
	return t.T == o.T && t.ValsEqual(o)
}

// compareVals lexicographically orders two value vectors; a strict prefix
// sorts first (shared by Compare and CompareVals).
func compareVals(a, b []value.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Compare orders tuples by nontemporal values, then by timestamp; the total
// order drives sorting, merging and set operations.
func (t Tuple) Compare(o Tuple) int {
	if c := compareVals(t.Vals, o.Vals); c != 0 {
		return c
	}
	return t.T.Compare(o.T)
}

// CompareVals orders tuples by nontemporal values only.
func (t Tuple) CompareVals(o Tuple) int {
	return compareVals(t.Vals, o.Vals)
}

// Concat returns the concatenation of t and o's values; the result carries
// timestamp ts.
func (t Tuple) Concat(o Tuple, ts interval.Interval) Tuple {
	vals := make([]value.Value, 0, len(t.Vals)+len(o.Vals))
	vals = append(vals, t.Vals...)
	vals = append(vals, o.Vals...)
	return Tuple{Vals: vals, T: ts}
}

// WithT returns a copy of t with timestamp ts (values shared, not copied;
// callers must not mutate).
func (t Tuple) WithT(ts interval.Interval) Tuple {
	return Tuple{Vals: t.Vals, T: ts}
}

// NullPad returns a tuple of n ω values with timestamp ts (the outer-join
// padding of the paper's examples).
func NullPad(n int, ts interval.Interval) Tuple {
	return Tuple{Vals: make([]value.Value, n), T: ts}
}

// String renders "(v1, v2, ...) [ts, te)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	if !t.T.Zero() {
		b.WriteByte(' ')
		b.WriteString(t.T.String())
	}
	return b.String()
}
