package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// TestHashOperatorsMatchOracle chains the columnar hash join, hash
// aggregate and absorb to the snapshot-semantics oracle. Every Table 2
// join reduction below runs its ordinary join as the hash join (MatchT
// makes T a key; the residual half of θ rides along) with the absorb on
// top — the antijoin runs as the gaps-only alignment — and its
// aggregation as the hash aggregate grouped by T; each result must equal
// the oracle's snapshot-by-snapshot evaluation, at the default batch size
// and at 2.
func TestHashOperatorsMatchOracle(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	attrsS := []schema.Attr{{Name: "y", Type: value.KindString}, {Name: "w", Type: value.KindInt}}
	equi := expr.Eq(expr.C("x"), expr.C("y"))
	withResidual := expr.And(equi, expr.Le(expr.C("v"), expr.C("w")))

	type rel = *relation.Relation
	ops := []struct {
		name   string
		engine func(a *Algebra, r, s rel, theta expr.Expr) (rel, error)
		oracle func(r, s rel, theta expr.Expr) (rel, error)
	}{
		{"join", (*Algebra).Join, oracle.Join},
		{"left outer join", (*Algebra).LeftOuterJoin, oracle.LeftOuterJoin},
		{"right outer join", (*Algebra).RightOuterJoin, oracle.RightOuterJoin},
		{"full outer join", (*Algebra).FullOuterJoin, oracle.FullOuterJoin},
		{"antijoin", (*Algebra).AntiJoin, oracle.AntiJoin},
	}
	for _, batch := range []int{0, 2} {
		flags := plan.DefaultFlags()
		flags.BatchSize = batch
		a := New(flags)
		probe := randrel.Generate(rand.New(rand.NewSource(1)), randrel.DefaultConfig(attrsR...))
		bound, err := BindTheta(probe, r2(probe, attrsS), withResidual)
		if err != nil {
			t.Fatal(err)
		}
		node, err := a.JoinReducePlan(a.p.Scan(probe, "r"), a.p.Scan(r2(probe, attrsS), "s"), bound, exec.LeftOuterJoin)
		if err != nil {
			t.Fatal(err)
		}
		if text := plan.Explain(node); !strings.Contains(text, "Absorb") || !strings.Contains(text, "hash left outer join") {
			t.Fatalf("the reduction does not run absorb over the hash join:\n%s", text)
		}
		rng := rand.New(rand.NewSource(int64(90 + batch)))
		for round := 0; round < 40; round++ {
			r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
			s := randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
			check := func(name string, got, want rel, err, oerr error) {
				t.Helper()
				if err != nil || oerr != nil {
					t.Fatalf("batch=%d round %d %s: engine %v, oracle %v", batch, round, name, err, oerr)
				}
				if !relation.SetEqual(got, want) {
					onlyG, onlyW := relation.Diff(got, want)
					t.Fatalf("batch=%d round %d %s: differs from the oracle\nonly engine: %v\nonly oracle: %v\nr:\n%s\ns:\n%s",
						batch, round, name, onlyG, onlyW, r, s)
				}
			}
			for _, op := range ops {
				for tn, theta := range map[string]expr.Expr{"x=y": equi, "x=y and v<=w": withResidual} {
					got, err := op.engine(a, r, s, theta)
					want, oerr := op.oracle(r, s, theta)
					check(fmt.Sprintf("%s on %s", op.name, tn), got, want, err, oerr)
				}
			}
			got, err := a.Aggregation(r, []string{"x"}, []exec.AggSpec{
				{Func: exec.AggCount, Arg: expr.C("v"), Name: "c"},
				{Func: exec.AggSum, Arg: expr.C("v"), Name: "s"},
				{Func: exec.AggMin, Arg: expr.C("v"), Name: "mn"},
				{Func: exec.AggMax, Arg: expr.C("v"), Name: "mx"},
			})
			want, oerr := oracle.Aggregation(r, []string{"x"}, []oracle.AggSpec{
				{Op: oracle.Count, Arg: expr.C("v"), Name: "c"},
				{Op: oracle.Sum, Arg: expr.C("v"), Name: "s"},
				{Op: oracle.Min, Arg: expr.C("v"), Name: "mn"},
				{Op: oracle.Max, Arg: expr.C("v"), Name: "mx"},
			})
			check("aggregation", got, want, err, oerr)
		}
	}
}
