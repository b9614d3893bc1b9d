package core

import (
	"fmt"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/relation"
)

// This file implements the reduction rules of Table 2. Every temporal
// operator reduces to its nontemporal counterpart over adjusted argument
// relations; adjusted timestamps are compared with equality only.
//
//	Selection     σT_θ(r)   = σ_θ(r)
//	Projection    πT_B(r)   = π_{B,T}(N_B(r; r))
//	Aggregation   BϑT_F(r)  = B,Tϑ_F(N_B(r; r))
//	Difference    r −T s    = N_A(r; s) − N_A(s; r)
//	Union         r ∪T s    = N_A(r; s) ∪ N_A(s; r)
//	Intersection  r ∩T s    = N_A(r; s) ∩ N_A(s; r)
//	Cart.Prod.    r ×T s    = α((rΦtrue s) ⋈_{r.T=s.T} (sΦtrue r))
//	Inner Join    r ⋈T_θ s  = α((rΦθ s) ⋈_{θ∧r.T=s.T} (sΦθ r))
//	Left O. Join  r ⟕T_θ s  = α((rΦθ s) ⟕_{θ∧r.T=s.T} (sΦθ r))
//	Right O. Join r ⟖T_θ s  = α((rΦθ s) ⟖_{θ∧r.T=s.T} (sΦθ r))
//	Full O. Join  r ⟗T_θ s  = α((rΦθ s) ⟗_{θ∧r.T=s.T} (sΦθ r))
//	Anti Join     r ▷T_θ s  =  (rΦθ s) ▷_{θ∧r.T=s.T} (sΦθ r)

// Selection evaluates σT_θ(r): the only operator needing no adjustment.
func (a *Algebra) Selection(r *relation.Relation, pred expr.Expr) (*relation.Relation, error) {
	bound, err := pred.Bind(r.Schema)
	if err != nil {
		return nil, err
	}
	if expr.UsesT(bound) {
		return nil, fmt.Errorf("core: selection predicate references the implicit valid time; use Extend (extended snapshot reducibility)")
	}
	return plan.Run(a.p.Filter(a.p.Scan(r, "r"), bound))
}

// Projection evaluates πT_B(r) = π_{B,T}(N_B(r; r)) with set semantics.
func (a *Algebra) Projection(r *relation.Relation, attrs ...string) (*relation.Relation, error) {
	cols, err := r.Schema.Indexes(attrs...)
	if err != nil {
		return nil, err
	}
	scan := a.p.Scan(r, "r")
	norm := a.NormalizePlan(scan, a.p.Scan(r, "r"), cols)
	names := make([]string, len(cols))
	exprs := make([]expr.Expr, len(cols))
	for i, c := range cols {
		at := r.Schema.Attrs[c]
		names[i] = at.Name
		exprs[i] = expr.ColIdx{Idx: c, Typ: at.Type, Name: at.Name}
	}
	proj := a.p.Project(norm, names, exprs) // TKeep: the adjusted T survives
	return plan.Run(a.p.Distinct(proj))
}

// Aggregation evaluates BϑT_F(r) = B,Tϑ_F(N_B(r; r)). groupBy names the
// grouping attributes B (possibly empty); aggregate arguments may reference
// any attribute of r, including propagated timestamps.
func (a *Algebra) Aggregation(r *relation.Relation, groupBy []string, aggs []exec.AggSpec) (*relation.Relation, error) {
	cols, err := r.Schema.Indexes(groupBy...)
	if err != nil {
		return nil, err
	}
	norm := a.NormalizePlan(a.p.Scan(r, "r"), a.p.Scan(r, "r"), cols)
	names := make([]string, len(cols))
	exprs := make([]expr.Expr, len(cols))
	for i, c := range cols {
		at := r.Schema.Attrs[c]
		names[i] = at.Name
		exprs[i] = expr.ColIdx{Idx: c, Typ: at.Type, Name: at.Name}
	}
	boundAggs := make([]exec.AggSpec, len(aggs))
	for i, sp := range aggs {
		boundAggs[i] = sp
		if sp.Arg != nil {
			arg, err := sp.Arg.Bind(r.Schema)
			if err != nil {
				return nil, err
			}
			if expr.UsesT(arg) {
				return nil, fmt.Errorf("core: aggregate argument references the implicit valid time; use Extend (extended snapshot reducibility)")
			}
			boundAggs[i].Arg = arg
		}
	}
	agg, err := a.p.Aggregate(norm, exprs, names, true, boundAggs)
	if err != nil {
		return nil, err
	}
	return plan.Run(agg)
}

// setOperands builds the two normalized inputs N_A(r; s) and N_A(s; r).
func (a *Algebra) setOperands(r, s *relation.Relation) (plan.Node, plan.Node, error) {
	if !r.Schema.UnionCompatible(s.Schema) {
		return nil, nil, fmt.Errorf("core: set operation arguments not union compatible: %s vs %s", r.Schema, s.Schema)
	}
	all := make([]int, r.Schema.Len())
	for i := range all {
		all[i] = i
	}
	nr := a.NormalizePlan(a.p.Scan(r, "r"), a.p.Scan(s, "s"), all)
	ns := a.NormalizePlan(a.p.Scan(s, "s"), a.p.Scan(r, "r"), all)
	return nr, ns, nil
}

// Union evaluates r ∪T s = N_A(r; s) ∪ N_A(s; r).
func (a *Algebra) Union(r, s *relation.Relation) (*relation.Relation, error) {
	nr, ns, err := a.setOperands(r, s)
	if err != nil {
		return nil, err
	}
	return plan.Run(a.p.SetOp(nr, ns, exec.UnionOp))
}

// Difference evaluates r −T s = N_A(r; s) − N_A(s; r).
func (a *Algebra) Difference(r, s *relation.Relation) (*relation.Relation, error) {
	nr, ns, err := a.setOperands(r, s)
	if err != nil {
		return nil, err
	}
	return plan.Run(a.p.SetOp(nr, ns, exec.ExceptOp))
}

// Intersection evaluates r ∩T s = N_A(r; s) ∩ N_A(s; r).
func (a *Algebra) Intersection(r, s *relation.Relation) (*relation.Relation, error) {
	nr, ns, err := a.setOperands(r, s)
	if err != nil {
		return nil, err
	}
	return plan.Run(a.p.SetOp(nr, ns, exec.IntersectOp))
}

// joinReduce evaluates a tuple based binary operator through its Table 2
// plan (JoinReducePlan) over scans of r and s.
func (a *Algebra) joinReduce(r, s *relation.Relation, theta expr.Expr, typ exec.JoinType) (*relation.Relation, error) {
	bound, err := BindTheta(r, s, theta)
	if err != nil {
		return nil, err
	}
	node, err := a.JoinReducePlan(a.p.Scan(r, "r"), a.p.Scan(s, "s"), bound, typ)
	if err != nil {
		return nil, err
	}
	return plan.Run(node)
}

// JoinReducePlan builds the Table 2 plan for a tuple based binary operator
// over already-constructed inputs: align both arguments, join the adjusted
// relations with θ ∧ r.T = s.T, and absorb temporal duplicates (Example 9).
// theta must be bound against Concat(r.Schema, s.Schema) (nil means true).
func (a *Algebra) JoinReducePlan(r, s plan.Node, theta expr.Expr, typ exec.JoinType) (plan.Node, error) {
	if typ == exec.AntiJoin {
		// The antijoin's rule has no absorb, and only the aligner's gap
		// tuples survive (rΦθs) ▷_{θ∧r.T=s.T} (sΦθr): by Proposition 3
		// every intersection piece has an equal-timestamp θ-partner on the
		// other side. So the antijoin IS the gaps-only alignment (the
		// Sec. 8 specialized primitive), with no second alignment and no
		// join.
		return a.GapsPlan(r, s, theta), nil
	}
	rl, sl := r.Schema().Len(), s.Schema().Len()
	rAligned := a.AlignPlan(r, s, theta)
	sAligned := a.AlignPlan(s, r, swapTheta(theta, rl, sl))
	// The reduction compares adjusted timestamps with equality, so T is an
	// ordinary equi-join key of the hash join.
	return a.p.Absorb(a.p.Join(rAligned, sAligned, theta, typ, true)), nil
}

// CartesianProduct evaluates r ×T s.
func (a *Algebra) CartesianProduct(r, s *relation.Relation) (*relation.Relation, error) {
	return a.joinReduce(r, s, nil, exec.InnerJoin)
}

// Join evaluates the temporal inner join r ⋈T_θ s.
func (a *Algebra) Join(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return a.joinReduce(r, s, theta, exec.InnerJoin)
}

// LeftOuterJoin evaluates r ⟕T_θ s.
func (a *Algebra) LeftOuterJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return a.joinReduce(r, s, theta, exec.LeftOuterJoin)
}

// RightOuterJoin evaluates r ⟖T_θ s.
func (a *Algebra) RightOuterJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return a.joinReduce(r, s, theta, exec.RightOuterJoin)
}

// FullOuterJoin evaluates r ⟗T_θ s.
func (a *Algebra) FullOuterJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return a.joinReduce(r, s, theta, exec.FullOuterJoin)
}

// AntiJoin evaluates r ▷T_θ s (no absorb, per Table 2).
func (a *Algebra) AntiJoin(r, s *relation.Relation, theta expr.Expr) (*relation.Relation, error) {
	return a.joinReduce(r, s, theta, exec.AntiJoin)
}

// Timeslice exposes τ_t over the package API for applications (temporal
// upward compatibility: querying the state at one time point).
func Timeslice(r *relation.Relation, t int64) *relation.Relation {
	return r.Timeslice(t)
}
