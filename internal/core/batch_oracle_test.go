package core

import (
	"math/rand"
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

// TestBatchSizesMatchOracle is the randomized differential test for the
// batched executor: for random relations, every temporal operator must
// return the same set at every batch size — degenerate batches of one
// tuple put every tuple on a boundary — and, where the oracle implements
// the operator, the same set as the independent snapshot-by-snapshot
// oracle.
func TestBatchSizesMatchOracle(t *testing.T) {
	attrsR := []schema.Attr{{Name: "x", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	attrsS := []schema.Attr{{Name: "x2", Type: value.KindString}, {Name: "w", Type: value.KindInt}}
	theta := expr.Eq(expr.CI(0, value.KindString), expr.CI(2, value.KindString))

	type binOp struct {
		name   string
		run    func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error)
		oracle func(r, s *relation.Relation) (*relation.Relation, error)
	}
	ops := []binOp{
		{"align", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.Align(r, s, theta)
		}, nil},
		{"normalize", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.Normalize(r, r, "x")
		}, nil},
		{"join", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.Join(r, s, theta)
		}, func(r, s *relation.Relation) (*relation.Relation, error) {
			return oracle.Join(r, s, theta)
		}},
		{"leftouter", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.LeftOuterJoin(r, s, theta)
		}, func(r, s *relation.Relation) (*relation.Relation, error) {
			return oracle.LeftOuterJoin(r, s, theta)
		}},
		{"fullouter", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.FullOuterJoin(r, s, theta)
		}, func(r, s *relation.Relation) (*relation.Relation, error) {
			return oracle.FullOuterJoin(r, s, theta)
		}},
		{"antijoin", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.AntiJoin(r, s, theta)
		}, func(r, s *relation.Relation) (*relation.Relation, error) {
			return oracle.AntiJoin(r, s, theta)
		}},
		{"aggregation", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.Aggregation(r, []string{"x"}, []exec.AggSpec{
				{Func: exec.AggCount, Arg: expr.C("v"), Name: "c"},
				{Func: exec.AggMax, Arg: expr.C("v"), Name: "m"},
			})
		}, func(r, s *relation.Relation) (*relation.Relation, error) {
			return oracle.Aggregation(r, []string{"x"}, []oracle.AggSpec{
				{Op: oracle.Count, Arg: expr.C("v"), Name: "c"},
				{Op: oracle.Max, Arg: expr.C("v"), Name: "m"},
			})
		}},
		{"union", func(a *Algebra, r, s *relation.Relation) (*relation.Relation, error) {
			return a.Union(r, r2(s, attrsR))
		}, func(r, s *relation.Relation) (*relation.Relation, error) {
			return oracle.Union(r, r2(s, attrsR))
		}},
	}

	batches := []int{
		1,   // degenerate batches: every tuple crosses a boundary
		2,   // tiny batches
		0,   // default batch size
		512, // one batch holds every input
	}
	type input struct{ r, s *relation.Relation }
	inputs := make([]input, 25)
	for seed := range inputs {
		rng := rand.New(rand.NewSource(int64(seed)))
		inputs[seed].r = randrel.Generate(rng, randrel.DefaultConfig(attrsR...))
		inputs[seed].s = randrel.Generate(rng, randrel.DefaultConfig(attrsS...))
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			for seed, in := range inputs {
				r, s := in.r, in.s
				var want *relation.Relation
				if op.oracle != nil {
					var err error
					if want, err = op.oracle(r, s); err != nil {
						t.Fatalf("seed %d oracle: %v", seed, err)
					}
				}
				for _, batch := range batches {
					got, err := op.run(New(plan.Flags{BatchSize: batch}), r, s)
					if err != nil {
						t.Fatalf("seed %d batch=%d: %v", seed, batch, err)
					}
					if want == nil {
						want = got // no oracle: every batch size must agree with the first
						continue
					}
					if !relation.SetEqual(want, got) {
						a, b := relation.Diff(want, got)
						t.Fatalf("seed %d batch=%d: result differs from the reference\nonly reference: %v\nonly engine: %v\nr:\n%s\ns:\n%s",
							seed, batch, a, b, r, s)
					}
				}
			}
		})
	}
}

// r2 renames s's attributes to be union compatible with r's schema.
func r2(s *relation.Relation, attrs []schema.Attr) *relation.Relation {
	out := relation.New(schema.Schema{Attrs: attrs})
	out.Tuples = s.Tuples
	return out
}
