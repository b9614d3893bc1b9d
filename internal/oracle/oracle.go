// Package oracle is an independent reference implementation of the
// temporal algebra, evaluated directly from the paper's definitions rather
// than through the reduction rules: each operator is computed snapshot by
// snapshot (snapshot reducibility, Def. 1, over extended relations for
// Def. 4), its result rows are annotated with lineage sets (Def. 6), and
// maximal runs of time points with identical lineage become the result
// tuples (change preservation, Def. 7).
//
// The oracle is deliberately naive and shares no evaluation machinery with
// the engine beyond the expression language; agreement between core and
// oracle on random inputs is the repository's executable proof of
// Theorem 1.
package oracle

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// row is one snapshot result row: values plus a canonical lineage string.
type row struct {
	vals []value.Value
	lin  string
}

// rowKey canonically encodes values and lineage for run tracking.
func rowKey(r row) string {
	var b strings.Builder
	for _, v := range r.vals {
		fmt.Fprintf(&b, "%d:%s|", v.Kind(), v)
	}
	b.WriteString("#")
	b.WriteString(r.lin)
	return b.String()
}

// linSet canonically renders a lineage component from tuple indexes.
func linSet(idx []int) string {
	s := make([]string, len(idx))
	for i, v := range idx {
		s[i] = fmt.Sprint(v)
	}
	sort.Strings(s)
	return "{" + strings.Join(s, ",") + "}"
}

// linConst is the lineage component "the whole argument relation" used by
// difference-like lineage (Def. 6): it never varies with t.
const linConst = "*"

func lin2(a, b string) string { return "<" + a + ";" + b + ">" }

// boundaries returns the sorted distinct interval endpoints of all
// relations: between consecutive boundaries every snapshot is constant.
func boundaries(rels ...*relation.Relation) []int64 {
	set := map[int64]struct{}{}
	for _, r := range rels {
		for _, t := range r.Rows() {
			set[t.T.Ts] = struct{}{}
			set[t.T.Te] = struct{}{}
		}
	}
	out := make([]int64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// pointwise runs snap over every constant segment and merges maximal runs
// of identical (values, lineage) rows into result tuples.
func pointwise(out schema.Schema, snap func(t int64) ([]row, error), rels ...*relation.Relation) (*relation.Relation, error) {
	res := relation.New(out)
	bounds := boundaries(rels...)
	type run struct {
		vals  []value.Value
		start int64
		end   int64
	}
	open := map[string]*run{}
	for i := 0; i+1 < len(bounds); i++ {
		t, next := bounds[i], bounds[i+1]
		rows, err := snap(t)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, r := range rows {
			k := rowKey(r)
			if seen[k] {
				return nil, fmt.Errorf("oracle: duplicate snapshot row %v at t=%d (argument not duplicate free?)", r.vals, t)
			}
			seen[k] = true
			if ru, ok := open[k]; ok && ru.end == t {
				ru.end = next // contiguous: extend the run
				continue
			}
			if ru, ok := open[k]; ok {
				// Same row reappears after a hole: close the old run.
				res.Tuples = append(res.Tuples, tuple.Tuple{Vals: ru.vals, T: interval.Interval{Ts: ru.start, Te: ru.end}})
			}
			open[k] = &run{vals: r.vals, start: t, end: next}
		}
		// Close runs not extended in this segment.
		for k, ru := range open {
			if ru.end != next && ru.end <= t {
				res.Tuples = append(res.Tuples, tuple.Tuple{Vals: ru.vals, T: interval.Interval{Ts: ru.start, Te: ru.end}})
				delete(open, k)
			}
		}
	}
	for _, ru := range open {
		res.Tuples = append(res.Tuples, tuple.Tuple{Vals: ru.vals, T: interval.Interval{Ts: ru.start, Te: ru.end}})
	}
	res.SortCanonical()
	return res, nil
}

// aliveIdx lists the indexes of r's tuples alive at t.
func aliveIdx(r *relation.Relation, t int64) []int {
	var out []int
	for i, tp := range r.Rows() {
		if tp.T.Contains(t) {
			out = append(out, i)
		}
	}
	return out
}

func evalTheta(theta expr.Expr, l, r tuple.Tuple) (bool, error) {
	if theta == nil {
		return true, nil
	}
	vals := make([]value.Value, 0, len(l.Vals)+len(r.Vals))
	vals = append(vals, l.Vals...)
	vals = append(vals, r.Vals...)
	env := expr.Env{Vals: vals}
	return expr.EvalBool(theta, &env)
}

// Selection computes σT_θ(r) from the definitions.
func Selection(r *relation.Relation, pred expr.Expr) (*relation.Relation, error) {
	bound, err := pred.Bind(r.Schema)
	if err != nil {
		return nil, err
	}
	rt := r.Rows()
	return pointwise(r.Schema, func(t int64) ([]row, error) {
		var rows []row
		for _, i := range aliveIdx(r, t) {
			env := expr.Env{Vals: rt[i].Vals}
			ok, err := expr.EvalBool(bound, &env)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, row{vals: rt[i].Vals, lin: lin2(linSet([]int{i}), "")})
			}
		}
		return rows, nil
	}, r)
}

// Projection computes πT_B(r) from the definitions.
func Projection(r *relation.Relation, attrs ...string) (*relation.Relation, error) {
	cols, err := r.Schema.Indexes(attrs...)
	if err != nil {
		return nil, err
	}
	out := r.Schema.Project(cols)
	return pointwise(out, func(t int64) ([]row, error) {
		groups := map[string][]int{}
		vals := map[string][]value.Value{}
		for _, i := range aliveIdx(r, t) {
			b := make([]value.Value, len(cols))
			for k, c := range cols {
				b[k] = r.Rows()[i].Vals[c]
			}
			key := valsKey(b)
			groups[key] = append(groups[key], i)
			vals[key] = b
		}
		var rows []row
		for key, idx := range groups {
			rows = append(rows, row{vals: vals[key], lin: lin2(linSet(idx), "")})
		}
		return rows, nil
	}, r)
}

func valsKey(vs []value.Value) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%d:%s|", v.Kind(), v)
	}
	return b.String()
}

// AggOp mirrors the engine's aggregate functions for the oracle.
type AggOp uint8

// Aggregate functions supported by the oracle.
const (
	CountStar AggOp = iota
	Count
	Sum
	Avg
	Min
	Max
)

// AggSpec is an oracle aggregate column.
type AggSpec struct {
	Op   AggOp
	Arg  expr.Expr
	Name string
}

// Aggregation computes BϑT_F(r) from the definitions.
func Aggregation(r *relation.Relation, groupBy []string, aggs []AggSpec) (*relation.Relation, error) {
	cols, err := r.Schema.Indexes(groupBy...)
	if err != nil {
		return nil, err
	}
	attrs := make([]schema.Attr, 0, len(cols)+len(aggs))
	for _, c := range cols {
		attrs = append(attrs, r.Schema.Attrs[c])
	}
	bound := make([]AggSpec, len(aggs))
	for i, a := range aggs {
		bound[i] = a
		if a.Arg != nil {
			e, err := a.Arg.Bind(r.Schema)
			if err != nil {
				return nil, err
			}
			bound[i].Arg = e
		}
		kind := value.KindInt
		switch a.Op {
		case Avg:
			kind = value.KindFloat
		case Sum, Min, Max:
			if a.Arg != nil && bound[i].Arg.Type() != value.KindNull {
				kind = bound[i].Arg.Type()
			}
		}
		attrs = append(attrs, schema.Attr{Name: a.Name, Type: kind})
	}
	out := schema.Schema{Attrs: attrs}
	return pointwise(out, func(t int64) ([]row, error) {
		groups := map[string][]int{}
		keys := map[string][]value.Value{}
		for _, i := range aliveIdx(r, t) {
			b := make([]value.Value, len(cols))
			for k, c := range cols {
				b[k] = r.Rows()[i].Vals[c]
			}
			key := valsKey(b)
			groups[key] = append(groups[key], i)
			keys[key] = b
		}
		var rows []row
		for key, idx := range groups {
			vals := append([]value.Value{}, keys[key]...)
			for _, a := range bound {
				v, err := aggEval(a, r, idx)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			rows = append(rows, row{vals: vals, lin: lin2(linSet(idx), "")})
		}
		return rows, nil
	}, r)
}

func aggEval(a AggSpec, r *relation.Relation, idx []int) (value.Value, error) {
	var count int64
	var sumI int64
	var sumF float64
	sawF := false
	var best value.Value
	hasBest := false
	for _, i := range idx {
		if a.Op == CountStar {
			count++
			continue
		}
		tp := r.Rows()[i]
		env := expr.Env{Vals: tp.Vals, T: tp.T}
		v, err := a.Arg.Eval(&env)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch v.Kind() {
		case value.KindInt:
			sumI += v.Int()
			sumF += float64(v.Int())
		case value.KindFloat:
			sawF = true
			sumF += v.Float()
		}
		if !hasBest || (a.Op == Min && v.Compare(best) < 0) || (a.Op == Max && v.Compare(best) > 0) {
			best = v
			hasBest = true
		}
	}
	switch a.Op {
	case CountStar, Count:
		return value.NewInt(count), nil
	case Sum:
		if count == 0 {
			return value.Null, nil
		}
		if sawF {
			return value.NewFloat(sumF), nil
		}
		return value.NewInt(sumI), nil
	case Avg:
		if count == 0 {
			return value.Null, nil
		}
		return value.NewFloat(sumF / float64(count)), nil
	default:
		if !hasBest {
			return value.Null, nil
		}
		return best, nil
	}
}

// matchRows pairs alive tuples by value equality for the set operations.
func setRows(r, s *relation.Relation, t int64, kind setKind) []row {
	ra, sa := aliveIdx(r, t), aliveIdx(s, t)
	rt, st := r.Rows(), s.Rows()
	rGroups := map[string][]int{}
	rVals := map[string][]value.Value{}
	for _, i := range ra {
		k := valsKey(rt[i].Vals)
		rGroups[k] = append(rGroups[k], i)
		rVals[k] = rt[i].Vals
	}
	sGroups := map[string][]int{}
	sVals := map[string][]value.Value{}
	for _, j := range sa {
		k := valsKey(st[j].Vals)
		sGroups[k] = append(sGroups[k], j)
		sVals[k] = st[j].Vals
	}
	var rows []row
	switch kind {
	case unionKind:
		seen := map[string]bool{}
		for k, idx := range rGroups {
			rows = append(rows, row{vals: rVals[k], lin: lin2(linSet(idx), linSet(sGroups[k]))})
			seen[k] = true
		}
		for k, jdx := range sGroups {
			if !seen[k] {
				rows = append(rows, row{vals: sVals[k], lin: lin2(linSet(nil), linSet(jdx))})
			}
		}
	case intersectKind:
		for k, idx := range rGroups {
			if jdx, ok := sGroups[k]; ok {
				rows = append(rows, row{vals: rVals[k], lin: lin2(linSet(idx), linSet(jdx))})
			}
		}
	case exceptKind:
		for k, idx := range rGroups {
			if _, ok := sGroups[k]; !ok {
				rows = append(rows, row{vals: rVals[k], lin: lin2(linSet(idx), linConst)})
			}
		}
	}
	return rows
}

type setKind uint8

const (
	unionKind setKind = iota
	intersectKind
	exceptKind
)

// Union computes r ∪T s from the definitions.
func Union(r, s *relation.Relation) (*relation.Relation, error) {
	return pointwise(r.Schema, func(t int64) ([]row, error) {
		return setRows(r, s, t, unionKind), nil
	}, r, s)
}

// Intersection computes r ∩T s from the definitions.
func Intersection(r, s *relation.Relation) (*relation.Relation, error) {
	return pointwise(r.Schema, func(t int64) ([]row, error) {
		return setRows(r, s, t, intersectKind), nil
	}, r, s)
}

// Difference computes r −T s from the definitions.
func Difference(r, s *relation.Relation) (*relation.Relation, error) {
	return pointwise(r.Schema, func(t int64) ([]row, error) {
		return setRows(r, s, t, exceptKind), nil
	}, r, s)
}

// joinKind distinguishes the tuple based binary operators.
type joinKind uint8

const (
	innerKind joinKind = iota
	leftKind
	rightKind
	fullKind
	antiKind
)

func joinRows(r, s *relation.Relation, theta expr.Expr, t int64, kind joinKind) ([]row, error) {
	ra, sa := aliveIdx(r, t), aliveIdx(s, t)
	rt, st := r.Rows(), s.Rows()
	rMatched := map[int]bool{}
	sMatched := map[int]bool{}
	var rows []row
	for _, i := range ra {
		for _, j := range sa {
			ok, err := evalTheta(theta, rt[i], st[j])
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			rMatched[i] = true
			sMatched[j] = true
			if kind == antiKind {
				continue
			}
			vals := make([]value.Value, 0, len(rt[i].Vals)+len(st[j].Vals))
			vals = append(vals, rt[i].Vals...)
			vals = append(vals, st[j].Vals...)
			rows = append(rows, row{vals: vals, lin: lin2(linSet([]int{i}), linSet([]int{j}))})
		}
	}
	pad := func(n int) []value.Value { return make([]value.Value, n) }
	if kind == leftKind || kind == fullKind {
		for _, i := range ra {
			if !rMatched[i] {
				vals := append(append([]value.Value{}, rt[i].Vals...), pad(s.Schema.Len())...)
				rows = append(rows, row{vals: vals, lin: lin2(linSet([]int{i}), linConst)})
			}
		}
	}
	if kind == rightKind || kind == fullKind {
		for _, j := range sa {
			if !sMatched[j] {
				vals := append(append([]value.Value{}, pad(r.Schema.Len())...), st[j].Vals...)
				rows = append(rows, row{vals: vals, lin: lin2(linConst, linSet([]int{j}))})
			}
		}
	}
	if kind == antiKind {
		for _, i := range ra {
			if !rMatched[i] {
				rows = append(rows, row{vals: rt[i].Vals, lin: lin2(linSet([]int{i}), linConst)})
			}
		}
	}
	return rows, nil
}

func joinOp(r, s *relation.Relation, theta expr.Expr, kind joinKind) (*relation.Relation, error) {
	var bound expr.Expr
	var err error
	if theta != nil {
		bound, err = theta.Bind(r.Schema.Concat(s.Schema))
		if err != nil {
			return nil, err
		}
	}
	out := r.Schema.Concat(s.Schema)
	if kind == antiKind {
		out = r.Schema
	}
	return pointwise(out, func(t int64) ([]row, error) {
		return joinRows(r, s, bound, t, kind)
	}, r, s)
}

// CartesianProduct computes r ×T s from the definitions.
func CartesianProduct(r, s *relation.Relation) (*relation.Relation, error) {
	return joinOp(r, s, nil, innerKind)
}

// Join computes r ⋈T_θ s from the definitions.
func Join(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return joinOp(r, s, theta, innerKind)
}

// LeftOuterJoin computes r ⟕T_θ s from the definitions.
func LeftOuterJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return joinOp(r, s, theta, leftKind)
}

// RightOuterJoin computes r ⟖T_θ s from the definitions.
func RightOuterJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return joinOp(r, s, theta, rightKind)
}

// FullOuterJoin computes r ⟗T_θ s from the definitions.
func FullOuterJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return joinOp(r, s, theta, fullKind)
}

// AntiJoin computes r ▷T_θ s from the definitions.
func AntiJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return joinOp(r, s, theta, antiKind)
}
