package core

import (
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

// The temporal antijoin runs as the gaps-only aligner (the Sec. 8
// specialized primitive); its result must be the oracle's definitional
// antijoin.

func TestAntiJoinRewriteEquivalence(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	attrsS := []schema.Attr{{Name: "y", Type: value.KindString}, {Name: "w", Type: value.KindInt}}
	thetas := map[string]expr.Expr{
		"true": nil,
		"x=y":  expr.Eq(expr.C("x"), expr.C("y")),
		"v<=w": expr.Le(expr.C("v"), expr.C("w")),
	}
	fast := Default()
	rng := rand.New(rand.NewSource(123))
	for name, theta := range thetas {
		for round := 0; round < 80; round++ {
			r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
			s := randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
			got, err := fast.AntiJoin(r, s, theta)
			if err != nil {
				t.Fatalf("θ=%s: rewrite: %v", name, err)
			}
			want, err := oracle.AntiJoin(r, s, theta)
			if err != nil {
				t.Fatalf("θ=%s: oracle: %v", name, err)
			}
			if !relation.SetEqual(got, want) {
				onlyGot, onlyWant := relation.Diff(got, want)
				t.Fatalf("θ=%s round %d: rewrite changed the antijoin\nonly rewrite: %v\nonly oracle: %v\nr:\n%s\ns:\n%s",
					name, round, onlyGot, onlyWant, r, s)
			}
		}
	}
}

// TestAntiJoinRewritePlanShape: the rewritten plan has no join above the
// adjustment and mentions the gaps mode.
func TestAntiJoinRewritePlanShape(t *testing.T) {
	fast := Default()
	r := relation.NewBuilder("x string").Row(0, 9, "a").MustBuild()
	s := relation.NewBuilder("y string").Row(2, 4, "a").MustBuild()
	p := fast.Planner()
	node, err := fast.JoinReducePlan(p.Scan(r, "r"), p.Scan(s, "s"), nil, exec.AntiJoin)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	text := plan.Explain(node)
	if !strings.Contains(text, "align-gaps") {
		t.Fatalf("rewrite should use the gaps mode:\n%s", text)
	}
	// Exactly one Adjust and no outer join above it besides the group
	// construction join.
	out, err := plan.Run(node)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := relation.NewBuilder("x string").
		Row(0, 2, "a").
		Row(4, 9, "a").
		MustBuild()
	if !relation.SetEqual(out, want) {
		t.Fatalf("gaps result wrong:\n%s", out)
	}
}

// TestAntiJoinRewriteKeylessTheta: the gaps-only aligner composes with
// a keyless θ, whose group is the one run of the whole group side.
func TestAntiJoinRewriteKeylessTheta(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}}
	attrsS := []schema.Attr{{Name: "y", Type: value.KindString}}
	a := Default()
	rng := rand.New(rand.NewSource(124))
	for round := 0; round < 60; round++ {
		r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
		got, err := a.AntiJoin(r, s, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := oracle.AntiJoin(r, s, nil)
		if err != nil {
			t.Fatalf("round %d: oracle: %v", round, err)
		}
		if !relation.SetEqual(got, want) {
			t.Fatalf("round %d: the rewrite over keyless θ changed the antijoin", round)
		}
	}
}
