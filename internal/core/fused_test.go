package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// The references below read the paper's definitions literally: for every
// argument tuple they enumerate EVERY candidate interval inside its valid
// time and keep the ones the definition admits. No planner, no sort, no
// sweep — they share nothing with the operator under test.

// refMatches returns the s tuples that satisfy θ with l (θ bound against
// Concat(r, s); nil means true).
func refMatches(t *testing.T, l tuple.Tuple, s *relation.Relation, theta expr.Expr) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for _, m := range s.Tuples {
		if theta != nil {
			env := expr.Env{Vals: append(append([]value.Value{}, l.Vals...), m.Vals...), T: l.T}
			ok, err := expr.EvalBool(theta, &env)
			if err != nil {
				t.Fatalf("reference θ: %v", err)
			}
			if !ok {
				continue
			}
		}
		out = append(out, m)
	}
	return out
}

// refAlign is r Φ_θ s by Def. 11: r̃ = (r.A, T) is in the result iff T is a
// non-empty intersection r.T ∩ s.T with a θ-matching s, or T ⊆ r.T is
// disjoint from every θ-matching s and no proper superinterval inside r.T
// is. gapsOnly keeps only the second disjunct (the Sec. 8 antijoin
// customization).
func refAlign(t *testing.T, r, s *relation.Relation, theta expr.Expr, gapsOnly bool) *relation.Relation {
	t.Helper()
	out := relation.New(r.Schema)
	for _, l := range r.Tuples {
		group := refMatches(t, l, s, theta)
		uncovered := func(iv interval.Interval) bool {
			for _, m := range group {
				if m.T.Overlaps(iv) {
					return false
				}
			}
			return true
		}
		for a := l.T.Ts; a < l.T.Te; a++ {
			for b := a + 1; b <= l.T.Te; b++ {
				iv := interval.Interval{Ts: a, Te: b}
				isIntersection := false
				for _, m := range group {
					if m.T.Overlaps(l.T) && max(m.T.Ts, l.T.Ts) == a && min(m.T.Te, l.T.Te) == b {
						isIntersection = true
					}
				}
				isGap := uncovered(iv) &&
					(a == l.T.Ts || !uncovered(interval.Interval{Ts: a - 1, Te: b})) &&
					(b == l.T.Te || !uncovered(interval.Interval{Ts: a, Te: b + 1}))
				if (isIntersection && !gapsOnly) || isGap {
					out.Tuples = append(out.Tuples, l.WithT(iv))
				}
			}
		}
	}
	return out
}

// refNormalize is N_B(r; s) by Def. 9, B given positionally by cols: r̃ =
// (r.A, T) is in the result iff T ⊆ r.T contains no start or end point of
// an s tuple with s.B = r.B strictly inside, and no proper superinterval
// inside r.T does.
func refNormalize(r, s *relation.Relation, cols []int) *relation.Relation {
	out := relation.New(r.Schema)
	for _, l := range r.Tuples {
		split := map[int64]bool{}
		for _, m := range s.Tuples {
			same := true
			for _, c := range cols {
				// ω never equals anything (randrel generates none; kept for the definition).
				if l.Vals[c].IsNull() || m.Vals[c].IsNull() || !l.Vals[c].Equal(m.Vals[c]) {
					same = false
				}
			}
			if same {
				split[m.T.Ts], split[m.T.Te] = true, true
			}
		}
		for a := l.T.Ts; a < l.T.Te; a++ {
			for b := a + 1; b <= l.T.Te; b++ {
				unsplit := true
				for p := a + 1; p < b; p++ {
					if split[p] {
						unsplit = false
					}
				}
				if unsplit && (a == l.T.Ts || split[a]) && (b == l.T.Te || split[b]) {
					out.Tuples = append(out.Tuples, l.WithT(interval.Interval{Ts: a, Te: b}))
				}
			}
		}
	}
	return out
}

// wantLabel is the fused node EXPLAIN must show for a mode, whatever θ's
// shape: every θ uses the one group index.
func wantLabel(mode exec.AdjustMode) string {
	return fmt.Sprintf("FusedAdjust %s  (", mode)
}

func mustSetEqual(t *testing.T, what string, got, want, r, s *relation.Relation) {
	t.Helper()
	if !relation.SetEqual(got, want) {
		a, b := relation.Diff(got, want)
		t.Fatalf("%s\nonly engine: %v\nonly reference: %v\nr:\n%s\ns:\n%s", what, a, b, r, s)
	}
}

// TestFusedAdjustMatchesDefinitions is the randomized differential test of
// the one ALIGN/NORMALIZE operator against Defs. 11 and 9: 30 seeds ×
// {θ equi, equi+residual, keyless, nil} × {align, gaps, normalize}.
func TestFusedAdjustMatchesDefinitions(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	attrsS := []schema.Attr{{Name: "x2", Type: value.KindString}, {Name: "w", Type: value.KindInt}}
	equi := expr.Eq(expr.CI(0, value.KindString), expr.CI(2, value.KindString))
	vLEw := expr.Le(expr.CI(1, value.KindInt), expr.CI(3, value.KindInt))
	shapes := []struct {
		name  string
		theta expr.Expr
		cols  []int // the normalize B of matching shape
	}{
		{"equi", equi, []int{0}},
		{"equi+residual", expr.And(equi, vLEw), []int{0, 1}},
		{"keyless", vLEw, nil},
		{"nil", nil, nil},
	}

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
		a := Default()
		p := a.Planner()
		for _, sh := range shapes {
			tag := fmt.Sprintf("seed %d %s", seed, sh.name)
			for _, gaps := range []bool{false, true} {
				node, mode := a.AlignPlan(p.Scan(r, "r"), p.Scan(s, "s"), sh.theta), exec.ModeAlign
				if gaps {
					node, mode = a.GapsPlan(p.Scan(r, "r"), p.Scan(s, "s"), sh.theta), exec.ModeGaps
				}
				if text, want := plan.Explain(node), wantLabel(mode); !strings.Contains(text, want) {
					t.Fatalf("%s: plan does not use the %s:\n%s", tag, want, text)
				}
				got, err := plan.Run(node)
				if err != nil {
					t.Fatalf("%s gaps=%v: %v", tag, gaps, err)
				}
				mustSetEqual(t, fmt.Sprintf("%s gaps=%v: align differs from Def. 11", tag, gaps),
					got, refAlign(t, r, s, sh.theta, gaps), r, s)
			}
			// Split points from the other relation and from r itself.
			for _, pts := range []*relation.Relation{s, r} {
				node := a.NormalizePlan(p.Scan(r, "r"), p.Scan(pts, "s"), sh.cols)
				if text, want := plan.Explain(node), wantLabel(exec.ModeNormalize); !strings.Contains(text, want) {
					t.Fatalf("%s: normalize plan does not use the %s:\n%s", tag, want, text)
				}
				got, err := plan.Run(node)
				if err != nil {
					t.Fatalf("%s normalize: %v", tag, err)
				}
				mustSetEqual(t, tag+": normalize differs from Def. 9", got, refNormalize(r, pts, sh.cols), r, pts)
			}
		}
	}
}

// TestFusedAdjustComposedMatchesOracle: the Table 2 reductions built on
// the primitives agree with the snapshot oracle.
func TestFusedAdjustComposedMatchesOracle(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	attrsS := []schema.Attr{{Name: "x2", Type: value.KindString}, {Name: "w", Type: value.KindInt}}
	equi := expr.Eq(expr.CI(0, value.KindString), expr.CI(2, value.KindString))
	vLEw := expr.Le(expr.CI(1, value.KindInt), expr.CI(3, value.KindInt))
	type rels = *relation.Relation
	checks := []struct {
		name   string
		run    func(a *Algebra, r, s rels) (rels, error)
		oracle func(r, s rels) (rels, error)
	}{
		{"fullouter-equi",
			func(a *Algebra, r, s rels) (rels, error) { return a.FullOuterJoin(r, s, equi) },
			func(r, s rels) (rels, error) { return oracle.FullOuterJoin(r, s, equi) }},
		{"fullouter-true",
			func(a *Algebra, r, s rels) (rels, error) { return a.FullOuterJoin(r, s, nil) },
			func(r, s rels) (rels, error) { return oracle.FullOuterJoin(r, s, nil) }},
		{"leftouter-keyless",
			func(a *Algebra, r, s rels) (rels, error) { return a.LeftOuterJoin(r, s, vLEw) },
			func(r, s rels) (rels, error) { return oracle.LeftOuterJoin(r, s, vLEw) }},
		{"antijoin-equi",
			func(a *Algebra, r, s rels) (rels, error) { return a.AntiJoin(r, s, equi) },
			func(r, s rels) (rels, error) { return oracle.AntiJoin(r, s, equi) }},
		{"antijoin-residual",
			func(a *Algebra, r, s rels) (rels, error) { return a.AntiJoin(r, s, expr.And(equi, vLEw)) },
			func(r, s rels) (rels, error) { return oracle.AntiJoin(r, s, expr.And(equi, vLEw)) }},
		{"difference",
			func(a *Algebra, r, s rels) (rels, error) { return a.Difference(r, r2(s, attrsR)) },
			func(r, s rels) (rels, error) { return oracle.Difference(r, r2(s, attrsR)) }},
		{"aggregation",
			func(a *Algebra, r, _ rels) (rels, error) {
				return a.Aggregation(r, []string{"x"}, []exec.AggSpec{{Func: exec.AggCount, Arg: expr.C("v"), Name: "c"}})
			},
			func(r, _ rels) (rels, error) {
				return oracle.Aggregation(r, []string{"x"}, []oracle.AggSpec{{Op: oracle.Count, Arg: expr.C("v"), Name: "c"}})
			}},
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		s := randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
		for _, c := range checks {
			want, err := c.oracle(r, s)
			if err != nil {
				t.Fatalf("seed %d %s oracle: %v", seed, c.name, err)
			}
			got, err := c.run(Default(), r, s)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			mustSetEqual(t, fmt.Sprintf("seed %d %s differs from the oracle", seed, c.name), got, want, r, s)
		}
	}
}

// TestFusedAdjustBatchSizes: the fused operator matches the definitions
// at every batch size, down to one tuple per batch.
func TestFusedAdjustBatchSizes(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	theta := expr.Eq(expr.CI(0, value.KindString), expr.CI(2, value.KindString))
	for _, batch := range []int{1, 3, 0} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			a := New(plan.Flags{BatchSize: batch})
			for seed := int64(0); seed < 15; seed++ {
				rng := rand.New(rand.NewSource(seed))
				r := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
				s := randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
				tag := fmt.Sprintf("seed %d", seed)
				got, err := a.Align(r, s, theta)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				mustSetEqual(t, tag+": align differs from Def. 11", got, refAlign(t, r, s, theta, false), r, s)
				gotN, err := a.Normalize(r, r, "x")
				if err != nil {
					t.Fatalf("%s normalize: %v", tag, err)
				}
				mustSetEqual(t, tag+": normalize differs from Def. 9", gotN, refNormalize(r, r, []int{0}), r, r)
			}
		})
	}
}

// TestFusedAdjustPlanShape: EXPLAIN renders the fused node with its mode.
func TestFusedAdjustPlanShape(t *testing.T) {
	r := relation.NewBuilder("x string", "v int").Row(0, 5, "a", 1).MustBuild()
	s := relation.NewBuilder("y string", "w int").Row(2, 7, "a", 2).MustBuild()
	theta, err := BindTheta(r, s, expr.Eq(expr.C("x"), expr.C("y")))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	a := Default()
	text := plan.Explain(a.AlignPlan(a.Planner().Scan(r, "r"), a.Planner().Scan(s, "s"), theta))
	if !strings.Contains(text, wantLabel(exec.ModeAlign)) {
		t.Fatalf("plan missing the fused node label with its mode:\n%s", text)
	}
}
