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

func collect(t *testing.T, it ColIterator) *relation.Relation {
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

// TestJoinAccessesAgree verifies that the keyless join (the nested loop)
// and the keyed hash join produce identical result sets for every join
// type, with and without residual conditions and timestamp matching.
func TestJoinAccessesAgree(t *testing.T) {
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
				nl := collect(t, NewColHashJoin(NewColScan(r), NewColScan(s), nil, full, typ, matchT))
				if !sameRows(nl, want) {
					t.Fatalf("round %d %s matchT=%v: keyless hash join differs from the naive loop\ngot:\n%s\nwant:\n%s", round, typ, matchT, nl, want)
				}
				hj := collect(t, NewColHashJoin(NewColScan(r), NewColScan(s), pairs, residual, typ, matchT))
				if !relation.SetEqual(nl, hj) {
					a, b := relation.Diff(nl, hj)
					t.Fatalf("round %d %s matchT=%v: hash differs from nested loop\nonly nl: %v\nonly hash: %v\nr:\n%s\ns:\n%s",
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
	hj := collect(t, NewColHashJoin(NewColScan(r), NewColScan(s), pairs, nil, LeftOuterJoin, false))
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
