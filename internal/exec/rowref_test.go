package exec

import (
	"bytes"
	"sort"
	"testing"

	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/tuple"
)

// The operators' references where internal/oracle has none: naive loops over
// []tuple.Tuple that say what the deleted row operators said (predicates and
// projections through expr.Eval on one tuple at a time, set operations and
// sorts through tuple keys), in the operators' output order.

// holds evaluates pred on one tuple.
func holds(t *testing.T, pred expr.Expr, tp tuple.Tuple) bool {
	t.Helper()
	ok, err := expr.EvalBool(pred, &expr.Env{Vals: tp.Vals, T: tp.T})
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// naiveFilter is σ_pred.
func naiveFilter(t *testing.T, rows []tuple.Tuple, pred expr.Expr) (out []tuple.Tuple) {
	t.Helper()
	for _, tp := range rows {
		if holds(t, pred, tp) {
			out = append(out, tp)
		}
	}
	return out
}

// naiveProject is π with computed columns under a valid-time policy: a row
// whose TFromExpr period is ω or empty is dropped.
func naiveProject(t *testing.T, rows []tuple.Tuple, exprs []expr.Expr, tmode TPolicy, texpr expr.Expr) (out []tuple.Tuple) {
	t.Helper()
	for _, tp := range rows {
		env := expr.Env{Vals: tp.Vals, T: tp.T}
		o := tuple.Tuple{T: tp.T}
		for _, e := range exprs {
			v, err := e.Eval(&env)
			if err != nil {
				t.Fatal(err)
			}
			o.Vals = append(o.Vals, v)
		}
		switch tmode {
		case TZero:
			o.T = interval.Interval{}
		case TFromExpr:
			v, err := texpr.Eval(&env)
			if err != nil {
				t.Fatal(err)
			}
			if v.IsNull() || !v.Interval().Valid() {
				continue
			}
			o.T = v.Interval()
		}
		out = append(out, o)
	}
	return out
}

// naiveSort orders rows by keys (DESC by byte complement), ties by the full
// row key.
func naiveSort(t *testing.T, rows []tuple.Tuple, keys []SortKey) []tuple.Tuple {
	t.Helper()
	type keyed struct {
		k  []byte
		tp tuple.Tuple
	}
	ks := make([]keyed, len(rows))
	for i, tp := range rows {
		env := expr.Env{Vals: tp.Vals, T: tp.T}
		var k []byte
		for _, sk := range keys {
			v, err := sk.Expr.Eval(&env)
			if err != nil {
				t.Fatal(err)
			}
			mark := len(k)
			k = v.AppendKey(k)
			for j := mark; sk.Desc && j < len(k); j++ {
				k[j] ^= 0xff
			}
		}
		ks[i] = keyed{tp.AppendKey(k), tp}
	}
	sort.Slice(ks, func(a, b int) bool { return bytes.Compare(ks[a].k, ks[b].k) < 0 })
	out := make([]tuple.Tuple, len(ks))
	for i := range ks {
		out[i] = ks[i].tp
	}
	return out
}

// naiveSetOp is l ∪ r, l ∩ r or l − r with set semantics over (values, T);
// a nil r and UnionOp is DISTINCT.
func naiveSetOp(l, r []tuple.Tuple, kind SetOpKind) (out []tuple.Tuple) {
	inR, seen := map[string]bool{}, map[string]bool{}
	for _, tp := range r {
		inR[string(tp.AppendKey(nil))] = true
	}
	if kind == UnionOp {
		l = append(append([]tuple.Tuple(nil), l...), r...)
	}
	for _, tp := range l {
		k := string(tp.AppendKey(nil))
		if seen[k] || kind == IntersectOp && !inR[k] || kind == ExceptOp && inR[k] {
			continue
		}
		seen[k] = true
		out = append(out, tp)
	}
	return out
}

// naiveLimit is OFFSET off LIMIT n (n < 0: no limit).
func naiveLimit(rows []tuple.Tuple, n, off int64) []tuple.Tuple {
	rows = rows[min(off, int64(len(rows))):]
	if n >= 0 {
		rows = rows[:min(n, int64(len(rows)))]
	}
	return rows
}

// naiveJoin is the joins' reference: every pair tested with cond over the
// concatenated row (env.T = the left row's T) and, under matchT, with
// timestamp equality; output in the hash method's order (left order, matches
// in right order, unmatched right rows last).
func naiveJoin(t *testing.T, r, s *relation.Relation, cond expr.Expr, typ JoinType, matchT bool) *relation.Relation {
	t.Helper()
	sch := r.Schema
	if !typ.projectsLeftOnly() {
		sch = r.Schema.Concat(s.Schema)
	}
	out := relation.New(sch)
	hitR := make([]bool, s.Len())
	for _, l := range r.Rows() {
		hit := false
		for j, rt := range s.Rows() {
			if matchT && l.T != rt.T {
				continue
			}
			both := l.Concat(rt, l.T)
			if cond != nil && !holds(t, cond, both) {
				continue
			}
			hit, hitR[j] = true, true
			if !typ.projectsLeftOnly() {
				out.Tuples = append(out.Tuples, both)
			}
		}
		switch {
		case typ == SemiJoin && hit, typ == AntiJoin && !hit:
			out.Tuples = append(out.Tuples, l)
		case !hit && (typ == LeftOuterJoin || typ == FullOuterJoin):
			out.Tuples = append(out.Tuples, l.Concat(tuple.NullPad(s.Schema.Len(), l.T), l.T))
		}
	}
	for j, rt := range s.Rows() {
		if !hitR[j] && (typ == RightOuterJoin || typ == FullOuterJoin) {
			out.Tuples = append(out.Tuples, tuple.NullPad(r.Schema.Len(), rt.T).Concat(rt, rt.T))
		}
	}
	return out
}
