// Package core implements the paper's contribution: timestamp propagation
// (the extend operator U, Def. 3), the two temporal primitives — temporal
// aligner Φ_θ (Defs. 10/11) and temporal splitter / normalization N_B
// (Defs. 8/9) — the absorb operator α (Def. 12), and the reduction rules of
// Table 2 that turn every operator of a temporal algebra with sequenced
// semantics into nontemporal operators over adjusted relations.
//
// Query processing is the paper's two-step scheme: (1) propagate and adjust
// the interval timestamps of argument tuples, (2) apply the corresponding
// nontemporal operator, comparing adjusted timestamps with equality only.
//
// θ conditions are expressions over the concatenation of the left and the
// right argument schema (left attributes first). They must not reference
// the implicit valid time: predicates and functions over timestamps go
// through propagated attributes (Extend), which is exactly extended
// snapshot reducibility.
package core

import (
	"fmt"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Algebra evaluates the temporal algebra under a planner configuration.
// The zero value is not usable; construct with New or Default.
type Algebra struct {
	p *plan.Planner
}

// New returns an algebra whose internal joins are planned under flags.
func New(flags plan.Flags) *Algebra {
	return &Algebra{p: plan.NewPlanner(flags)}
}

// Default returns an algebra with all join methods enabled.
func Default() *Algebra { return New(plan.DefaultFlags()) }

// Planner exposes the underlying planner (for composing with custom plans).
func (a *Algebra) Planner() *plan.Planner { return a.p }

// ----------------------------------------------------------------- extend

// Extend implements U(r) (Def. 3): it appends an attribute holding a copy
// of each tuple's valid time, enabling predicates and functions over the
// original interval timestamps (extended snapshot reducibility).
func Extend(r *relation.Relation, name string) (*relation.Relation, error) {
	if r.Schema.Index(name) >= 0 {
		return nil, fmt.Errorf("core: extend attribute %q already exists", name)
	}
	attrs := make([]schema.Attr, 0, r.Schema.Len()+1)
	attrs = append(attrs, r.Schema.Attrs...)
	attrs = append(attrs, schema.Attr{Name: name, Type: value.KindInterval})
	s, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	out := relation.New(s)
	for _, t := range r.Rows() {
		vals := make([]value.Value, 0, len(t.Vals)+1)
		vals = append(vals, t.Vals...)
		vals = append(vals, value.NewInterval(t.T))
		out.Tuples = append(out.Tuples, tuple.Tuple{Vals: vals, T: t.T})
	}
	return out, nil
}

// MustExtend is Extend but panics on error.
func MustExtend(r *relation.Relation, name string) *relation.Relation {
	out, err := Extend(r, name)
	if err != nil {
		panic(err)
	}
	return out
}

// BindTheta binds a θ condition against Concat(r.Schema, s.Schema) and
// verifies it does not reference the implicit valid time. Ambiguous names
// resolve to the left argument (use positional references or distinct
// names where that matters; the SQL layer resolves qualified names).
func BindTheta(r, s *relation.Relation, theta expr.Expr) (expr.Expr, error) {
	if theta == nil {
		return nil, nil
	}
	bound, err := theta.Bind(r.Schema.Concat(s.Schema))
	if err != nil {
		return nil, err
	}
	if expr.UsesT(bound) {
		return nil, fmt.Errorf("core: θ references the implicit valid time; propagate timestamps with Extend instead (extended snapshot reducibility)")
	}
	return bound, nil
}

// swapTheta re-targets a θ bound against Concat(r, s) to Concat(s, r).
func swapTheta(theta expr.Expr, rWidth, sWidth int) expr.Expr {
	if theta == nil {
		return nil
	}
	return expr.Remap(theta, func(i int) int {
		if i < rWidth {
			return i + sWidth
		}
		return i - rWidth
	})
}

// ----------------------------------------------------- primitive: aligner

// AlignPlan builds the plan for r Φ_θ s (Def. 11): the group construction
// of Sec. 6.1 and the plane sweep of Sec. 6.2 as one fused operator
// (plan.AdjustmentNode).
func (a *Algebra) AlignPlan(r, s plan.Node, theta expr.Expr) plan.Node {
	return a.p.FusedAlign(r, s, theta, exec.ModeAlign)
}

// GapsPlan builds the customized aligner that emits only the maximal
// sub-intervals of r not covered by a θ-matching s tuple — the Sec. 8
// future-work specialization that evaluates the temporal antijoin without
// producing intersections that cannot contribute to its result.
func (a *Algebra) GapsPlan(r, s plan.Node, theta expr.Expr) plan.Node {
	return a.p.FusedAlign(r, s, theta, exec.ModeGaps)
}

// Align evaluates r Φ_θ s. theta is a condition over Concat(r, s) (nil for
// true, as in the reduction of the Cartesian product).
func (a *Algebra) Align(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	bound, err := BindTheta(r, s, theta)
	if err != nil {
		return nil, err
	}
	return plan.Run(a.AlignPlan(a.p.Scan(r, "r"), a.p.Scan(s, "s"), bound))
}

// ---------------------------------------------------- primitive: splitter

// NormalizePlan builds the plan for N_B(r; s) (Def. 9): r is grouped with
// s on B and swept with isalign = false by the fused operator. The paper
// joins r with the split points π_{B,Ts}(s) ∪ π_{B,Te}(s) (Sec. 6.3); the
// fused operator reads each group row's Ts and Te in place instead, and
// its sweep skips repeated points, so that union is never built.
//
// cols are the positions of the grouping attributes B, applied
// positionally to both r and s (for the set operations they are all of
// r's attributes; for projection/aggregation r and s coincide). Use
// NormalizePlan2 when B sits at different positions in r and s.
func (a *Algebra) NormalizePlan(r, s plan.Node, cols []int) plan.Node {
	return a.NormalizePlan2(r, s, cols, cols)
}

// NormalizePlan2 is NormalizePlan with independent column positions for the
// grouping attributes in r (rCols) and s (sCols).
func (a *Algebra) NormalizePlan2(r, s plan.Node, rCols, sCols []int) plan.Node {
	keys := make([]expr.EquiPair, len(rCols))
	for i, c := range rCols {
		at := r.Schema().Attrs[c]
		keys[i] = expr.EquiPair{
			Left:  expr.ColIdx{Idx: c, Typ: at.Type, Name: at.Name},
			Right: expr.ColIdx{Idx: sCols[i], Typ: at.Type, Name: s.Schema().Attrs[sCols[i]].Name},
		}
	}
	return a.p.FusedNormalize(r, s, keys)
}

// Normalize evaluates N_B(r; s) with B given by attribute names of r,
// matched positionally against s (pass r twice for self-normalization).
func (a *Algebra) Normalize(r, s *relation.Relation, attrs ...string) (*relation.Relation, error) {
	cols, err := r.Schema.Indexes(attrs...)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		if c >= s.Schema.Len() {
			return nil, fmt.Errorf("core: normalization attribute #%d outside s's schema %s", c, s.Schema)
		}
	}
	return plan.Run(a.NormalizePlan(a.p.Scan(r, "r"), a.p.Scan(s, "s"), cols))
}

// ----------------------------------------------------------------- absorb

// Absorb evaluates α(r) (Def. 12): tuples whose timestamps are properly
// contained in a value-equivalent tuple's timestamp are removed.
func (a *Algebra) Absorb(r *relation.Relation) (*relation.Relation, error) {
	return plan.Run(a.p.Absorb(a.p.Scan(r, "r")))
}
