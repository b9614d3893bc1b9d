// Package lineage implements lineage sets for interval timestamped
// databases (Def. 6) and the change preservation property (Def. 7): a
// result relation is change preserving iff every tuple's lineage is
// constant across its interval and value-equivalent tuples adjacent to its
// boundaries have different lineage (maximality).
//
// The package complements the oracle: the oracle constructs the unique
// change-preserving result, while this package checks an arbitrary claimed
// result against the definition — including deliberately broken results in
// tests (over-split or over-coalesced relations must fail).
package lineage

import (
	"fmt"
	"sort"

	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Lineage is one lineage set 〈r′, s′〉: the argument tuples (by index) a
// result tuple is derived from at a time point. RightWhole marks the
// difference-style second component, which is the entire s relation
// (constant in t). Unary operators leave Right empty.
type Lineage struct {
	Left       []int
	Right      []int
	RightWhole bool
}

// key canonicalizes a lineage for comparison.
func (l Lineage) key() string {
	a := append([]int{}, l.Left...)
	b := append([]int{}, l.Right...)
	sort.Ints(a)
	sort.Ints(b)
	if l.RightWhole {
		return fmt.Sprint(a, "|*")
	}
	return fmt.Sprint(a, "|", b)
}

// Equal reports whether two lineage sets are identical.
func (l Lineage) Equal(o Lineage) bool { return l.key() == o.key() }

// Func computes the lineage set of result tuple z at time point t; ok is
// false when z is not in the operator's result at t (which Verify treats
// as a snapshot reducibility violation).
type Func func(z tuple.Tuple, t int64) (Lineage, bool)

// Verify checks Def. 7 on a claimed result relation.
func Verify(result *relation.Relation, fn Func) error {
	for zi, z := range result.Rows() {
		// (1) The lineage set is constant across z.T, and z is in the
		// result at every point of z.T.
		first, ok := fn(z, z.T.Ts)
		if !ok {
			return fmt.Errorf("lineage: tuple %v not derivable at its own start point", z)
		}
		for t := z.T.Ts + 1; t < z.T.Te; t++ {
			l, ok := fn(z, t)
			if !ok {
				return fmt.Errorf("lineage: tuple %v not derivable at t=%d", z, t)
			}
			if !l.Equal(first) {
				return fmt.Errorf("lineage: tuple %v has changing lineage within its interval (t=%d)", z, t)
			}
		}
		// (2)+(3) Maximality: a value-equivalent tuple covering the point
		// just before z starts (or the point where z ends) must have a
		// different lineage there.
		for zj, z2 := range result.Rows() {
			if zi == zj || !z.ValsEqual(z2) {
				continue
			}
			if z2.T.Contains(z.T.Ts - 1) {
				l2, ok := fn(z2, z.T.Ts-1)
				if ok && l2.Equal(first) {
					return fmt.Errorf("lineage: tuples %v and %v should have been merged at t=%d", z2, z, z.T.Ts-1)
				}
			}
			if z2.T.Contains(z.T.Te) {
				l2, ok := fn(z2, z.T.Te)
				if ok && l2.Equal(first) {
					return fmt.Errorf("lineage: tuples %v and %v should have been merged at t=%d", z, z2, z.T.Te)
				}
			}
		}
	}
	return nil
}

// evalTheta evaluates θ over a candidate pair (nil θ is true).
func evalTheta(theta expr.Expr, l, r tuple.Tuple) bool {
	if theta == nil {
		return true
	}
	vals := make([]value.Value, 0, len(l.Vals)+len(r.Vals))
	vals = append(vals, l.Vals...)
	vals = append(vals, r.Vals...)
	env := expr.Env{Vals: vals}
	ok, err := expr.EvalBool(theta, &env)
	return err == nil && ok
}

// isAllNull reports whether a value slice is entirely ω.
func isAllNull(vs []value.Value) bool {
	for _, v := range vs {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

// LeftOuterJoin returns the lineage function for r ⟕T_θ s (Def. 6): join
// lineage for matched tuples, antijoin (difference) lineage for ω-padded
// tuples. theta must be bound against Concat(r.Schema, s.Schema).
func LeftOuterJoin(r, s *relation.Relation, theta expr.Expr) Func {
	rl := r.Schema.Len()
	return func(z tuple.Tuple, t int64) (Lineage, bool) {
		zr, zs := z.Vals[:rl], z.Vals[rl:]
		if isAllNull(zs) {
			// Antijoin lineage: 〈{r}, s〉.
			for i, rt := range r.Rows() {
				if !rt.T.Contains(t) || !valsEq(rt.Vals, zr) {
					continue
				}
				// z is in the result only if r has no θ-partner at t.
				for _, st := range s.Rows() {
					if st.T.Contains(t) && evalTheta(theta, rt, st) {
						return Lineage{}, false
					}
				}
				return Lineage{Left: []int{i}, RightWhole: true}, true
			}
			return Lineage{}, false
		}
		for i, rt := range r.Rows() {
			if !rt.T.Contains(t) || !valsEq(rt.Vals, zr) {
				continue
			}
			for j, st := range s.Rows() {
				if !st.T.Contains(t) || !valsEq(st.Vals, zs) {
					continue
				}
				if evalTheta(theta, rt, st) {
					return Lineage{Left: []int{i}, Right: []int{j}}, true
				}
			}
		}
		return Lineage{}, false
	}
}

// AntiJoin returns the lineage function for r ▷T_θ s.
func AntiJoin(r, s *relation.Relation, theta expr.Expr) Func {
	return func(z tuple.Tuple, t int64) (Lineage, bool) {
		for i, rt := range r.Rows() {
			if !rt.T.Contains(t) || !valsEq(rt.Vals, z.Vals) {
				continue
			}
			for _, st := range s.Rows() {
				if st.T.Contains(t) && evalTheta(theta, rt, st) {
					return Lineage{}, false
				}
			}
			return Lineage{Left: []int{i}, RightWhole: true}, true
		}
		return Lineage{}, false
	}
}

// Projection returns the lineage function for πT_B(r), with cols the
// projected column positions.
func Projection(r *relation.Relation, cols []int) Func {
	return func(z tuple.Tuple, t int64) (Lineage, bool) {
		var idx []int
		for i, rt := range r.Rows() {
			if !rt.T.Contains(t) {
				continue
			}
			match := true
			for k, c := range cols {
				if !rt.Vals[c].Equal(z.Vals[k]) {
					match = false
					break
				}
			}
			if match {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return Lineage{}, false
		}
		return Lineage{Left: idx}, true
	}
}

// Union returns the lineage function for r ∪T s.
func Union(r, s *relation.Relation) Func {
	return func(z tuple.Tuple, t int64) (Lineage, bool) {
		var li, ri []int
		for i, rt := range r.Rows() {
			if rt.T.Contains(t) && valsEq(rt.Vals, z.Vals) {
				li = append(li, i)
			}
		}
		for j, st := range s.Rows() {
			if st.T.Contains(t) && valsEq(st.Vals, z.Vals) {
				ri = append(ri, j)
			}
		}
		if len(li) == 0 && len(ri) == 0 {
			return Lineage{}, false
		}
		return Lineage{Left: li, Right: ri}, true
	}
}

// Difference returns the lineage function for r −T s: 〈{r...}, s〉.
func Difference(r, s *relation.Relation) Func {
	return func(z tuple.Tuple, t int64) (Lineage, bool) {
		var li []int
		for i, rt := range r.Rows() {
			if rt.T.Contains(t) && valsEq(rt.Vals, z.Vals) {
				li = append(li, i)
			}
		}
		if len(li) == 0 {
			return Lineage{}, false
		}
		for _, st := range s.Rows() {
			if st.T.Contains(t) && valsEq(st.Vals, z.Vals) {
				return Lineage{}, false // removed by the difference at t
			}
		}
		return Lineage{Left: li, RightWhole: true}, true
	}
}

func valsEq(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
