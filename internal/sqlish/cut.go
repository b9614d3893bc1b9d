package sqlish

import (
	"context"
	"fmt"
	"strings"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// Cut names the node of a statement's plan where a distributed fragment
// ends. A worker plans the statement itself and runs the subtree at the
// cut (Prepared.Cut); the coordinator plans the same text, so its own
// plan has the same nodes above the cut, and runs them over the gathered
// fragment answers (Prepared.StreamSplit). Each side finds the cut by
// walking down from the plan root through single-input nodes.
type Cut uint8

const (
	// CutWhole is the root: the fragment is the whole statement.
	CutWhole Cut = iota
	// CutBody is the node under the top Limit and Sort, a DISTINCT or
	// ABSORB included.
	CutBody
	// CutAggregate is the first aggregation under Limit, Sort, Project and
	// Filter: fragments answer partial aggregates.
	CutAggregate
	numCuts
)

func (c Cut) String() string {
	switch c {
	case CutWhole:
		return "whole"
	case CutBody:
		return "body"
	case CutAggregate:
		return "aggregate"
	}
	return fmt.Sprintf("cut(%d)", uint8(c))
}

// cutPath walks root down to the node at c and returns it with the nodes
// above it, root first; at is nil when the plan has no node there.
func cutPath(root plan.Node, c Cut) (above []plan.Node, at plan.Node) {
	n := root
	for c != CutWhole {
		var in plan.Node
		switch x := n.(type) {
		case *plan.LimitNode:
			in = x.Input
		case *plan.SortNode:
			in = x.Input
		case *plan.ProjectNode:
			if c == CutAggregate {
				in = x.Input
			}
		case *plan.FilterNode:
			if c == CutAggregate {
				in = x.Input
			}
		case *plan.AggNode, *plan.SweepAggNode:
			// The sweep rule reads the shard's column storage, so a worker
			// may plan the sweep where the coordinator has the aggregation:
			// the two have one output schema.
			if c == CutAggregate {
				return above, n
			}
		}
		if in == nil {
			if c == CutAggregate {
				return nil, nil
			}
			break
		}
		above, n = append(above, n), in
	}
	return above, n
}

// Cut returns the plan's subtree at c as a statement of its own, over the
// same placeholders: what a fragment at c runs. It is memoized on p, so
// the fragment's executions re-open its idle pipelines.
func (p *Prepared) Cut(c Cut) (*Prepared, error) {
	if c == CutWhole {
		return p, nil
	}
	if c >= numCuts {
		return nil, requestError("no %s cut of a plan", c)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if q := p.cuts[c]; q != nil {
		return q, nil
	}
	_, at := cutPath(p.root, c)
	if at == nil {
		return nil, requestError("the plan has no node at the %s cut", c)
	}
	q := &Prepared{SQL: p.SQL, NumParams: p.NumParams, lifted: p.lifted, deps: p.deps, root: at}
	q.cols, q.types = at.Schema().ResultColumns()
	p.cuts[c] = q
	return q, nil
}

// Split checks that the plan can run as fragments at c with the rest
// above them — the node exists and has a merge form (see graft) — and
// returns the schema of the fragments' answers and, for EXPLAIN, the
// nodes that run above them.
func (p *Prepared) Split(c Cut, redo bool) (body schema.Schema, above string, err error) {
	q, err := p.Cut(c)
	if err != nil {
		return body, "", err
	}
	pl := plan.NewPlanner(plan.DefaultFlags())
	root, err := p.graft(c, redo, pl, pl.Scan(relation.New(q.Schema()), "fragments"))
	if err != nil {
		return body, "", err
	}
	var b strings.Builder
	for n := root; ; n = n.Children()[0] {
		b.WriteString(n.Label())
		if len(n.Children()) == 0 {
			return q.Schema(), b.String(), nil
		}
		b.WriteString(" <- ")
	}
}

// StreamSplit streams the nodes of p's plan above c over rows, the
// union of the answers of the fragments at c, with the cut's merge form
// re-applied (redo: a DISTINCT or ABSORB at a body cut runs again). args
// bind every placeholder, lifted ones included (Statement.Args), and
// flags are the planner's for the new nodes.
func (p *Prepared) StreamSplit(ctx context.Context, c Cut, redo bool, rows *relation.Relation, flags plan.Flags, args []value.Value) (*Cursor, error) {
	pl := plan.NewPlanner(flags)
	root, err := p.graft(c, redo, pl, pl.Scan(rows, ""))
	if err != nil {
		return nil, err
	}
	g := &Prepared{SQL: p.SQL, NumParams: len(args), root: root}
	return g.stream(ctx, nil, args, nil)
}

// graft rebuilds the nodes of p's plan above c over leaf, the fragments'
// answers, after the cut's merge form: nothing for a body cut, the
// DISTINCT or ABSORB again for one that redoes it, and for an aggregate
// cut an aggregation of the partials on the same groups (and T when the
// plan groups by T) with COUNT and SUM summed, MIN and MAX re-taken.
func (p *Prepared) graft(c Cut, redo bool, pl *plan.Planner, leaf plan.Node) (plan.Node, error) {
	above, at := cutPath(p.root, c)
	if at == nil {
		return nil, requestError("the plan has no node at the %s cut", c)
	}
	n := leaf
	switch x := at.(type) {
	case *plan.DistinctNode:
		if redo {
			n = pl.Distinct(n)
		}
	case *plan.AbsorbNode:
		if redo {
			n = pl.Absorb(n)
		}
	case *plan.AggNode:
		agg, err := mergeAggregate(pl, n, x.Schema(), len(x.GroupBy), x.GroupByT, x.Aggs)
		if err != nil {
			return nil, err
		}
		n = agg
	case *plan.SweepAggNode:
		agg, err := mergeAggregate(pl, n, x.Schema(), len(x.Group), true, x.Aggs)
		if err != nil {
			return nil, err
		}
		n = agg
	}
	if redo && n == leaf {
		return nil, requestError("the plan has no DISTINCT or ABSORB at the %s cut to redo", c)
	}
	for i := len(above) - 1; i >= 0; i-- {
		switch x := above[i].(type) {
		case *plan.LimitNode:
			n = pl.Limit(n, x.N, x.Offset)
		case *plan.SortNode:
			n = pl.Sort(n, x.Keys...)
		case *plan.ProjectNode:
			n = pl.ProjectMode(n, x.Names, x.Exprs, x.TMode, x.TExpr)
		case *plan.FilterNode:
			n = pl.Filter(n, x.Pred)
		}
	}
	return n, nil
}

// mergeAggregate aggregates partials of schema sch — ngroup group
// columns, then one column per aggregate of aggs — into the answer of
// the aggregation that produced them.
func mergeAggregate(pl *plan.Planner, in plan.Node, sch schema.Schema, ngroup int, byT bool, aggs []exec.AggSpec) (plan.Node, error) {
	col := func(i int) expr.Expr {
		return expr.ColIdx{Idx: i, Typ: sch.Attrs[i].Type, Name: sch.Attrs[i].Name}
	}
	group, names := make([]expr.Expr, ngroup), make([]string, ngroup)
	for i := range group {
		group[i], names[i] = col(i), sch.Attrs[i].Name
	}
	merged := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		f := a.Func
		switch f {
		case exec.AggCountStar, exec.AggCount, exec.AggSum:
			f = exec.AggSum
		case exec.AggMin, exec.AggMax:
		default:
			return nil, requestError("%s partials do not merge", f)
		}
		merged[i] = exec.AggSpec{Func: f, Arg: col(ngroup + i), Name: sch.Attrs[ngroup+i].Name}
	}
	return pl.Aggregate(in, group, names, byT, merged)
}
