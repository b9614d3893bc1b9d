package sqlish_test

import (
	"math/rand"
	"testing"

	"talign/internal/core"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// unopt plans with the optimizer off.
var unopt = plan.Flags{DisableOptimizer: true}

// diffServers builds optimizer-on (analyzed and unanalyzed) and
// optimizer-off servers over the same relations.
func diffServers(rels map[string]*relation.Relation) (on, onStats, off *server.Server) {
	return newServer(plan.DefaultFlags(), false, rels), newServer(plan.DefaultFlags(), true, rels), newServer(unopt, false, rels)
}

// TestOptimizerDifferential proves, over randomized relations, that
// optimized plans (with and without ANALYZE statistics) return exactly
// the rows the unoptimized plans do. The unoptimized path is itself
// diffed against the snapshot-semantics oracle by the core and fused
// operator tests, so agreement here chains the optimizer to the oracle.
// The servers plan the literal-lifted shapes with bound parameters; the
// "literal" legs prepare the statement text itself, so plans built from
// constant literals are diffed too.
func TestOptimizerDifferential(t *testing.T) {
	attrs := []schema.Attr{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	}
	const seeds = 30
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cfg := randrel.DefaultConfig(attrs...)
		cfg.MaxTuples = 12
		rels := map[string]*relation.Relation{
			"r": randrel.Generate(rng, cfg),
			"s": randrel.Generate(rng, cfg),
			"u": randrel.Generate(rng, cfg),
		}
		on, onStats, off := diffServers(rels)
		for _, q := range sqlish.DiffQueries {
			want, _, err := query(t, off, q)
			if err != nil {
				t.Fatalf("seed %d: unoptimized %s: %v", seed, q, err)
			}
			for name, e := range map[string]*server.Server{"opt": on, "opt+stats": onStats} {
				got, _, err := query(t, e, q)
				if err != nil {
					t.Fatalf("seed %d: %s %s: %v", seed, name, q, err)
				}
				if !relation.SetEqual(got, want) {
					onlyG, onlyW := relation.Diff(got, want)
					t.Fatalf("seed %d: %s diverged on %s\nonly %s: %v\nonly unopt: %v",
						seed, name, q, name, onlyG, onlyW)
				}
			}
			for name, flags := range map[string]plan.Flags{"literal opt+stats": plan.DefaultFlags(), "literal unopt": unopt} {
				got, err := literal(onStats, flags, q)
				if err != nil {
					t.Fatalf("seed %d: %s %s: %v", seed, name, q, err)
				}
				if !relation.SetEqual(got, want) {
					onlyG, onlyW := relation.Diff(got, want)
					t.Fatalf("seed %d: %s diverged on %s\nonly %s: %v\nonly unopt: %v",
						seed, name, q, name, onlyG, onlyW)
				}
			}
		}
	}
}

// TestOptimizerAlignPushdownVsAlgebra checks the key semantic claim
// behind ALIGN pushdown directly against the algebra: filtering an
// alignment's output by a value predicate equals aligning the
// pre-filtered left side (whose plans the core tests diff against the
// oracle).
func TestOptimizerAlignPushdownVsAlgebra(t *testing.T) {
	attrs := []schema.Attr{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	}
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		cfg := randrel.DefaultConfig(attrs...)
		r := randrel.Generate(rng, cfg)
		s := randrel.Generate(rng, cfg)

		_, onStats, _ := diffServers(map[string]*relation.Relation{"r": r, "s": s})
		got, _, err := query(t, onStats, "SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a = 1")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Algebra reference: σ_{a=1}(r) aligned against s.
		fr := relation.New(r.Schema)
		for _, tp := range r.Tuples {
			if tp.Vals[0].Kind() == value.KindInt && tp.Vals[0].Int() == 1 {
				fr.Tuples = append(fr.Tuples, tp)
			}
		}
		// θ positionally: left a is column 0, right a is column 2 of the
		// concatenated row (both relations are (a, b)).
		theta := expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt))
		want, err := core.Default().Align(fr, s, theta)
		if err != nil {
			t.Fatalf("seed %d: align: %v", seed, err)
		}
		if !relation.SetEqual(got, want) {
			onlyG, onlyW := relation.Diff(got, want)
			t.Fatalf("seed %d: SQL pushdown diverged from algebra\nonly sql: %v\nonly algebra: %v\nsql rows %d vs algebra %d",
				seed, onlyG, onlyW, got.Len(), want.Len())
		}
	}
}

// TestOptimizedPlansDeterministic: preparing the same statement twice
// yields the same EXPLAIN, so the plan cache can safely share optimized
// plans. Each EXPLAIN is prepared on its own server, so neither answer
// comes out of a plan cache.
func TestOptimizedPlansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := randrel.DefaultConfig(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindInt})
	rels := map[string]*relation.Relation{
		"r": randrel.Generate(rng, cfg),
		"s": randrel.Generate(rng, cfg),
		"u": randrel.Generate(rng, cfg),
	}
	explain := func(q string) string {
		t.Helper()
		_, onStats, _ := diffServers(rels)
		res := sqltest.MustRun(t, onStats, "EXPLAIN "+q)
		if res.CacheHit {
			t.Fatalf("%s: a fresh server answered from its plan cache", q)
		}
		return res.Plan
	}
	for _, q := range sqlish.DiffQueries {
		if p1, p2 := explain(q), explain(q); p1 != p2 {
			t.Errorf("nondeterministic plan for %s:\n%s\nvs\n%s", q, p1, p2)
		}
	}
}
