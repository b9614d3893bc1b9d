package exec

import (
	"math/rand"
	"testing"

	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

func attrsR() []schema.Attr {
	return []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
}

func attrsS() []schema.Attr {
	return []schema.Attr{{Name: "y", Type: value.KindString}, {Name: "w", Type: value.KindInt}}
}

func collect(t *testing.T, it Iterator) *relation.Relation {
	t.Helper()
	out, err := Collect(it)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return out
}

// equiKeys is x = y as an EquiPair plus its bound full condition.
func equiKeys(r, s *relation.Relation) ([]expr.EquiPair, expr.Expr) {
	pairs := []expr.EquiPair{{
		Left:  expr.ColIdx{Idx: 0, Typ: value.KindString},
		Right: expr.ColIdx{Idx: 0, Typ: value.KindString},
	}}
	cond := expr.Eq(
		expr.ColIdx{Idx: 0, Typ: value.KindString},
		expr.ColIdx{Idx: r.Schema.Len(), Typ: value.KindString},
	)
	return pairs, cond
}

// naiveJoin is the joins' reference: every pair tested with cond over the
// concatenated row (env.T = the left row's T) and, under matchT, with
// timestamp equality; output in the operators' order (left order, matches
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
			if cond != nil {
				ok, err := expr.EvalBool(cond, &expr.Env{Vals: both.Vals, T: l.T})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
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

// TestJoinMethodsAgree verifies that nested loop, hash and merge joins
// produce identical result sets for every join type, with and without
// residual conditions and timestamp matching.
func TestJoinMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	types := []JoinType{InnerJoin, LeftOuterJoin, RightOuterJoin, FullOuterJoin, SemiJoin, AntiJoin}
	for round := 0; round < 40; round++ {
		r := randrel.Generate(rng, randrel.DefaultConfig(attrsR()...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrsS()...))
		pairs, cond := equiKeys(r, s)
		residual := expr.Le(
			expr.ColIdx{Idx: 1, Typ: value.KindInt},
			expr.ColIdx{Idx: r.Schema.Len() + 1, Typ: value.KindInt},
		)
		full := expr.And(cond, residual)
		for _, typ := range types {
			for _, matchT := range []bool{false, true} {
				want := naiveJoin(t, r, s, full, typ, matchT)
				nl := collect(t, NewMaterialize(NewColHashJoin(NewColScan(r), NewColScan(s), nil, full, typ, matchT)))
				if !sameRows(nl, want) {
					t.Fatalf("round %d %s matchT=%v: keyless hash join differs from the naive loop\ngot:\n%s\nwant:\n%s", round, typ, matchT, nl, want)
				}
				hj := collect(t, NewMaterialize(NewColHashJoin(NewColScan(r), NewColScan(s), pairs, residual, typ, matchT)))
				mkSort := func(rel *relation.Relation, col int) Iterator {
					return NewSort(NewScan(rel), SortKey{Expr: expr.ColIdx{Idx: col, Typ: value.KindString}})
				}
				mj, err := NewMergeJoin(mkSort(r, 0), mkSort(s, 0), pairs, residual, typ, matchT)
				if err != nil {
					t.Fatalf("merge join: %v", err)
				}
				mg := collect(t, mj)
				if !relation.SetEqual(nl, hj) {
					a, b := relation.Diff(nl, hj)
					t.Fatalf("round %d %s matchT=%v: hash differs from nested loop\nonly nl: %v\nonly hash: %v\nr:\n%s\ns:\n%s",
						round, typ, matchT, a, b, r, s)
				}
				if !relation.SetEqual(nl, mg) {
					a, b := relation.Diff(nl, mg)
					t.Fatalf("round %d %s matchT=%v: merge differs from nested loop\nonly nl: %v\nonly merge: %v\nr:\n%s\ns:\n%s",
						round, typ, matchT, a, b, r, s)
				}
			}
		}
	}
}

// TestJoinNullKeysNeverMatch: ω keys behave like SQL nulls.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	r := relation.New(schema.Schema{Attrs: attrsR()})
	r.MustAppend(mkT(0, 10, value.Null, value.NewInt(1)))
	s := relation.New(schema.Schema{Attrs: attrsS()})
	s.MustAppend(mkT(0, 10, value.Null, value.NewInt(2)))
	pairs, cond := equiKeys(r, s)
	nl := naiveJoin(t, r, s, cond, LeftOuterJoin, false)
	hj := collect(t, NewMaterialize(NewColHashJoin(NewColScan(r), NewColScan(s), pairs, nil, LeftOuterJoin, false)))
	if nl.Len() != 1 || !nl.Tuples[0].Vals[2].IsNull() {
		t.Fatalf("nested loop: want one padded row, got %s", nl)
	}
	if !relation.SetEqual(nl, hj) {
		t.Fatalf("hash join disagrees on null keys:\n%s\nvs\n%s", nl, hj)
	}
}

func mkT(ts, te int64, vals ...value.Value) tuple.Tuple {
	return tuple.New(interval.New(ts, te), vals...)
}
