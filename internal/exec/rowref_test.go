package exec

import (
	"testing"

	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/tuple"
)

// The operators' references where internal/oracle has none: naive loops over
// []tuple.Tuple that say what the deleted row operators said.

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
		if tmode == TFromExpr {
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

// naiveSort orders a copy of rows by keys (DESC complemented), ties by row key.
func naiveSort(t *testing.T, rows []tuple.Tuple, keys []SortKey) []tuple.Tuple {
	t.Helper()
	out, ks := append([]tuple.Tuple(nil), rows...), make([][]byte, len(rows))
	for i, tp := range out {
		env := expr.Env{Vals: tp.Vals, T: tp.T}
		for _, sk := range keys {
			v, err := sk.Expr.Eval(&env)
			if err != nil {
				t.Fatal(err)
			}
			mark := len(ks[i])
			ks[i] = v.AppendKey(ks[i])
			for j := mark; sk.Desc && j < len(ks[i]); j++ {
				ks[i][j] ^= 0xff
			}
		}
		ks[i] = tp.AppendKey(ks[i])
	}
	tuple.KeySort(out, ks)
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

// naiveJoin tests every pair with cond over the concatenated row (env.T =
// the left row's T) and, under matchT, timestamp equality; output in the hash
// method's order (left order, matches in right order, unmatched right last).
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
