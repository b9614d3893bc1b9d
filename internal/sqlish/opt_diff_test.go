package sqlish

import (
	"math/rand"
	"testing"

	"talign/internal/core"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// diffQueries is the statement mix the optimizer differential covers:
// filters over every pushdown target (projections, joins incl. outer,
// ALIGN/NORMALIZE, set operations, DISTINCT/ABSORB, GROUP BY + HAVING),
// constant folding, multi-way join chains (a comma join among them), WITH
// sharing, and ORDER BY.
var diffQueries = []string{
	"SELECT a, b FROM r WHERE a = 1 AND b >= 1",
	"SELECT a, b, Ts, Te FROM r WHERE a = 1 AND 1 = 1",
	"SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= 1 AND r.b <= 2",
	"SELECT r.a, s.b FROM r LEFT JOIN s ON r.a = s.a WHERE r.b >= 1",
	"SELECT r.a, s.b FROM r RIGHT JOIN s ON r.a = s.a AND r.b >= 1 WHERE s.b <= 2",
	"SELECT r.a ra, s.a sa, u.b ub FROM r JOIN s ON r.a = s.a JOIN u ON s.b = u.b WHERE u.a >= 1",
	"SELECT r.b, s.b, u.b FROM r, s, u WHERE r.a = s.a AND s.b = u.b AND u.a = 1",
	"SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a >= 1",
	"SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x WHERE b = 2",
	"SELECT a, COUNT(*) c FROM r WHERE b >= 0 GROUP BY a HAVING a >= 1",
	"SELECT a, b FROM r WHERE a = 1 UNION SELECT a, b FROM s WHERE b = 1",
	"SELECT DISTINCT a FROM r WHERE b = 0",
	"SELECT ABSORB a, b, Ts, Te FROM r WHERE a >= 1",
	"WITH w AS (SELECT a, b FROM r WHERE a >= 1) SELECT w1.a, w2.b FROM w w1 JOIN w w2 ON w1.a = w2.a",
	"SELECT a, b FROM r WHERE a BETWEEN 0 AND 1 ORDER BY a, b",
}

// diffEngines builds optimizer-on (analyzed and unanalyzed) and
// optimizer-off engines over the same relations.
func diffEngines(t *testing.T, rels map[string]*relation.Relation) (on, onStats, off *Engine) {
	t.Helper()
	mk := func(disable, analyze bool) *Engine {
		f := plan.DefaultFlags()
		f.DisableOptimizer = disable
		e := NewEngine(f)
		for name, rel := range rels {
			e.Register(name, rel)
			if analyze {
				if _, err := e.Analyze(name); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e
	}
	return mk(false, false), mk(false, true), mk(true, false)
}

// TestOptimizerDifferential proves, over randomized relations, that
// optimized plans (with and without ANALYZE statistics) return exactly
// the rows the unoptimized plans do. The unoptimized path is itself
// diffed against the snapshot-semantics oracle by the core and fused
// operator tests, so agreement here chains the optimizer to the oracle.
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
		on, onStats, off := diffEngines(t, rels)
		for _, q := range diffQueries {
			want, _, err := off.Query(q)
			if err != nil {
				t.Fatalf("seed %d: unoptimized %s: %v", seed, q, err)
			}
			for name, e := range map[string]*Engine{"opt": on, "opt+stats": onStats} {
				got, _, err := e.Query(q)
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

		_, onStats, _ := diffEngines(t, map[string]*relation.Relation{"r": r, "s": s})
		got, _, err := onStats.Query("SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a = 1")
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
// plans.
func TestOptimizedPlansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := randrel.DefaultConfig(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindInt})
	rels := map[string]*relation.Relation{
		"r": randrel.Generate(rng, cfg),
		"s": randrel.Generate(rng, cfg),
		"u": randrel.Generate(rng, cfg),
	}
	_, onStats, _ := diffEngines(t, rels)
	for _, q := range diffQueries {
		_, p1, err := onStats.Query("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		_, p2, err := onStats.Query("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if p1 != p2 {
			t.Errorf("nondeterministic plan for %s:\n%s\nvs\n%s", q, p1, p2)
		}
	}
}
