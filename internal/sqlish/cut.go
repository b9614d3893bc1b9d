package sqlish

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// Placement is how a plan runs over hash-partitioned tables: fragments
// answer it to Cut, the coordinator runs the nodes above the cut over
// their union (the DISTINCT or ABSORB at a body cut again when Redo), and
// Require names the partition column each table must be hashed on for
// the fragments' answers to be exact.
type Placement struct {
	Cut     Cut
	Redo    bool
	Require map[string]string
}

// Place reads the placement off the plan, given the column each table is
// hashed on now (parts); ok is false when only gathering every table
// answers the statement. A subtree runs shard by shard when it walks (see
// require). The rule, in order:
//  1. Under the top Limit and Sort, the body: a body that walks is the
//     whole statement on every shard, or its body when ORDER BY or LIMIT
//     is left for the coordinator.
//  2. A body DISTINCT or ABSORB whose input walks runs on every shard and
//     again over the union.
//  3. An aggregation with a group column whose input walks answers
//     partials per shard, which the coordinator merges (Split says
//     whether its aggregates have a merge form).
func (p *Prepared) Place(parts map[string]string) (Placement, bool) {
	above, body := cutPath(p.root, CutBody)
	if req, ok := require(body, p.deps, parts); ok {
		if len(above) == 0 {
			return Placement{Cut: CutWhole, Require: req}, true
		}
		return Placement{Cut: CutBody, Require: req}, true
	}
	var in plan.Node
	switch body.(type) {
	case *plan.DistinctNode, *plan.AbsorbNode:
		in = body.Children()[0]
	}
	if req, ok := require(in, p.deps, parts); ok {
		return Placement{Cut: CutBody, Redo: true, Require: req}, true
	}
	in = nil
	_, agg := cutPath(p.root, CutAggregate)
	switch x := agg.(type) {
	case *plan.AggNode:
		if len(x.GroupBy) > 0 {
			in = x.Input
		}
	case *plan.SweepAggNode:
		if len(x.Group) > 0 {
			in = x.Input
		}
	}
	if req, ok := require(in, p.deps, parts); ok {
		return Placement{Cut: CutAggregate, Require: req}, true
	}
	return Placement{}, false
}

// require walks n and, when fragments can run it shard by shard, returns
// the partition column each of its tables needs. That takes two proofs.
// Colocation: every binary matching operator in n (a join, Φ_θ, N_B, and
// the N_B(r; r) a sweep aggregation folded away) pairs only rows that
// agree on its equi keys, so one class of equal columns that covers every
// scan and bridges every such operator is a hash partitioning under which
// all of a row's partners share its shard (colocationKey). Locality: every
// grouping node (aggregation, DISTINCT, ABSORB) has a group or projected
// column that is a base column hashed on its table's effective partition
// column — the required one, else the current one — so each group lives
// on one shard.
func require(n plan.Node, deps []Dep, parts map[string]string) (map[string]string, bool) {
	if n == nil {
		return nil, false
	}
	w := &locality{deps: deps, ok: true}
	w.walk(n)
	if !w.ok {
		return nil, false
	}
	req, ok := w.colocationKey()
	if !ok {
		return nil, false
	}
	pinned := func(c colRef) bool {
		if c.inst == 0 || c.padded {
			return false
		}
		t := w.tables[c.inst-1]
		col, ok := req[t]
		if !ok {
			col = parts[t]
		}
		return col == c.col
	}
	for _, g := range w.groups {
		if !slices.ContainsFunc(g, pinned) {
			return nil, false
		}
	}
	return req, true
}

// colRef is the provenance of a plan column that is a base column passed
// through unchanged (only ColIdx passes it on): scan instance inst
// (1-based; 0 is no base column) and the column's name. padded marks a
// column of the null-padded side of an outer join, whose padding rows
// arise on any shard.
type colRef struct {
	inst   int
	col    string
	padded bool
}

// locality is one walk of a plan subtree: the table of each scan
// instance, per matching operator the equi pairs that bridge its inputs,
// every column equality seen (join conditions, filters, keys), and per
// grouping node the columns that would pin its groups to one shard. ok
// turns false at a node no fragment may run below the cut: a Limit, a set
// operation, a WITH scan or a scan of no table.
type locality struct {
	deps   []Dep
	tables []string
	bounds [][][2]colRef
	equis  [][2]colRef
	groups [][]colRef
	ok     bool
}

// walk returns the provenance of n's output columns, one per column.
func (w *locality) walk(n plan.Node) []colRef {
	out := make([]colRef, n.Schema().Len())
	switch x := n.(type) {
	case *plan.ScanNode:
		i := slices.IndexFunc(w.deps, func(d Dep) bool { return d.Rel == x.Rel })
		if i < 0 { // no table: fine if it is empty, hence empty on every shard
			w.ok = w.ok && x.Rel.Len() == 0
			return out
		}
		w.tables = append(w.tables, w.deps[i].Name)
		for j, at := range x.Rel.Schema.Attrs {
			out[j] = colRef{inst: len(w.tables), col: at.Name}
		}
		return out
	case *plan.FilterNode:
		in := w.walk(x.Input)
		w.equate(x.Pred, in)
		return in
	case *plan.SortNode:
		return w.walk(x.Input)
	case *plan.ProjectNode:
		in := w.walk(x.Input)
		for i, e := range x.Exprs {
			out[i] = ref(in, e)
		}
		return out
	case *plan.JoinNode:
		l, r := w.walk(x.Left), w.walk(x.Right)
		both := append(slices.Clip(l), r...)
		var keys []expr.EquiPair
		if x.Cond != nil {
			keys, _ = expr.SplitJoinCondition(x.Cond, len(l))
			w.equate(x.Cond, both)
		}
		w.bounds = append(w.bounds, pairs(keys, l, r))
		switch x.Type {
		case exec.SemiJoin, exec.AntiJoin:
			return l
		case exec.LeftOuterJoin:
			pad(both[len(l):])
		case exec.RightOuterJoin:
			pad(both[:len(l)])
		case exec.FullOuterJoin:
			pad(both)
		}
		return both
	case *plan.AdjustmentNode:
		l, r := w.walk(x.Left), w.walk(x.Right)
		keys := pairs(x.Keys, l, r)
		w.bounds, w.equis = append(w.bounds, keys), append(w.equis, keys...)
		if x.Residual != nil {
			w.equate(x.Residual, append(slices.Clip(l), r...))
		}
		return l
	case *plan.SweepAggNode:
		in := w.walk(x.Input)
		var self [][2]colRef
		for _, k := range x.Keys {
			if in[k].inst > 0 {
				self = append(self, [2]colRef{in[k], in[k]})
			}
		}
		w.bounds, w.equis = append(w.bounds, self), append(w.equis, self...)
		for i, g := range x.Group {
			out[i] = in[g]
		}
		w.groups = append(w.groups, out[:len(x.Group)])
		return out
	case *plan.AggNode:
		in := w.walk(x.Input)
		for i, g := range x.GroupBy {
			out[i] = ref(in, g)
		}
		w.groups = append(w.groups, out[:len(x.GroupBy)])
		return out
	case *plan.DistinctNode, *plan.AbsorbNode:
		in := w.walk(n.Children()[0])
		w.groups = append(w.groups, in)
		return in
	}
	w.ok = false
	return out
}

// equate records every column = column conjunct of pred, over columns
// cols, in the equality graph.
func (w *locality) equate(pred expr.Expr, cols []colRef) {
	for _, c := range expr.Conjuncts(pred) {
		if cmp, ok := c.(expr.Cmp); ok && cmp.Op == expr.EQ {
			l, r := ref(cols, cmp.L), ref(cols, cmp.R)
			if l.inst > 0 && r.inst > 0 {
				w.equis = append(w.equis, [2]colRef{l, r})
			}
		}
	}
}

// ref is the provenance of e over columns cols: a ColIdx's column's.
func ref(cols []colRef, e expr.Expr) colRef {
	if c, ok := e.(expr.ColIdx); ok && c.Idx >= 0 && c.Idx < len(cols) {
		return cols[c.Idx]
	}
	return colRef{}
}

// pairs resolves equi keys over a binary operator's two inputs.
func pairs(keys []expr.EquiPair, l, r []colRef) [][2]colRef {
	var out [][2]colRef
	for _, k := range keys {
		lc, rc := ref(l, k.Left), ref(r, k.Right)
		if lc.inst > 0 && rc.inst > 0 {
			out = append(out, [2]colRef{lc, rc})
		}
	}
	return out
}

// pad marks cols as the null-padded side of an outer join.
func pad(cols []colRef) {
	for i := range cols {
		cols[i].padded = true
	}
}

// colocationKey searches the equality graph for one equivalence class
// that covers every instance and bridges every boundary with a direct
// equi-condition; the per-table column choice becomes the required
// partitioning. Two instances of one table demanding different columns
// make the tree non-colocatable under a single physical partitioning.
func (w *locality) colocationKey() (map[string]string, bool) {
	req := map[string]string{}
	if len(w.tables) <= 1 && len(w.bounds) == 0 {
		return req, true // single scan: any partitioning works
	}
	// Union-find over (instance, column) nodes.
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		parent[find(a)] = find(b)
	}
	key := func(n colRef) string { return strconv.Itoa(n.inst) + "." + n.col }
	for _, eq := range w.equis {
		union(key(eq[0]), key(eq[1]))
	}
	// Candidate classes, ordered deterministically by root key.
	roots := map[string][]colRef{}
	for _, eq := range w.equis {
		for _, n := range eq {
			r := find(key(n))
			roots[r] = append(roots[r], n)
		}
	}
	var order []string
	for r := range roots {
		order = append(order, r)
	}
	sort.Strings(order)
	for _, r := range order {
		nodes := roots[r]
		covered := map[int]string{} // inst -> chosen column (first seen)
		for _, n := range nodes {
			if _, ok := covered[n.inst]; !ok {
				covered[n.inst] = n.col
			}
		}
		if len(covered) != len(w.tables) {
			continue
		}
		ok := true
		for _, b := range w.bounds {
			bridged := false
			for _, p := range b {
				if find(key(p[0])) == r && find(key(p[1])) == r {
					bridged = true
					break
				}
			}
			if !bridged {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Per-table column: all instances of a table must agree.
		assign := map[string]string{}
		consistent := true
		for i, t := range w.tables {
			col := covered[i+1]
			if prev, seen := assign[t]; seen && prev != col {
				consistent = false
				break
			}
			assign[t] = col
		}
		if consistent {
			return assign, true
		}
	}
	return nil, false
}
