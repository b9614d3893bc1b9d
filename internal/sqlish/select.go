package sqlish

import (
	"fmt"
	"strconv"
	"strings"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/schema"
	"talign/internal/value"
)

// buildQueryExpr compiles a select or a set operation chain.
func (a *analyzer) buildQueryExpr(q *queryExpr) (plan.Node, *scope, error) {
	if q.Select != nil {
		return a.buildSelect(q.Select)
	}
	left, _, err := a.buildQueryExpr(q.Set.Left)
	if err != nil {
		return nil, nil, err
	}
	right, _, err := a.buildSelect(q.Set.Right)
	if err != nil {
		return nil, nil, err
	}
	var kind exec.SetOpKind
	switch q.Set.Op {
	case "union":
		kind = exec.UnionOp
	case "intersect":
		kind = exec.IntersectOp
	default:
		kind = exec.ExceptOp
	}
	if !left.Schema().UnionCompatible(right.Schema()) {
		return nil, nil, fmt.Errorf("sqlish: %s arguments not union compatible: %s vs %s",
			strings.ToUpper(q.Set.Op), left.Schema(), right.Schema())
	}
	return a.planner.SetOp(left, right, kind), nil, nil
}

// buildSelect compiles one SELECT. The returned scope (possibly nil)
// exposes the result columns for ORDER BY resolution.
func (a *analyzer) buildSelect(st *selectStmt) (plan.Node, *scope, error) {
	if len(st.From) == 0 {
		return nil, nil, fmt.Errorf("sqlish: SELECT without FROM is not supported")
	}
	// FROM: fold comma items with cross joins.
	node, sc, err := a.buildFrom(st.From[0])
	if err != nil {
		return nil, nil, err
	}
	for _, fi := range st.From[1:] {
		right, rsc, err := a.buildFrom(fi)
		if err != nil {
			return nil, nil, err
		}
		node = a.planner.Join(node, right, nil, exec.InnerJoin, false)
		sc = combineScopes(sc, rsc)
	}
	// Alias uniqueness.
	seen := map[string]bool{}
	for _, it := range sc.items {
		key := strings.ToLower(it.alias)
		if seen[key] {
			return nil, nil, fmt.Errorf("sqlish: duplicate table alias %q", it.alias)
		}
		seen[key] = true
	}
	if st.Where != nil {
		pred, err := a.condition(st.Where, st.WherePos, "WHERE", sc)
		if err != nil {
			return nil, nil, err
		}
		node = a.planner.Filter(node, pred)
	}

	hasAgg := len(st.GroupBy) > 0
	for _, item := range st.Items {
		if item.Expr != nil && containsAgg(item.Expr) {
			hasAgg = true
		}
	}
	if st.Having != nil {
		hasAgg = true
	}

	var out plan.Node
	if hasAgg {
		out, err = a.buildAggSelect(st, node, sc)
	} else {
		out, err = a.buildPlainSelect(st, node, sc)
	}
	if err != nil {
		return nil, nil, err
	}
	switch st.Dedup {
	case dedupDistinct:
		out = a.planner.Distinct(out)
	case dedupAbsorb:
		out = a.planner.Absorb(out)
	}
	return out, nil, nil
}

// buildPlainSelect handles non-aggregating SELECT lists: stars, expressions
// and the virtual Ts/Te columns whose unaliased selection sets the result's
// valid time.
func (a *analyzer) buildPlainSelect(st *selectStmt, node plan.Node, sc *scope) (plan.Node, error) {
	var names []string
	var exprs []expr.Expr
	var tsExpr, teExpr expr.Expr
	for _, item := range st.Items {
		if item.Star {
			for _, it := range sc.items {
				for c, at := range it.sch.Attrs {
					names = append(names, at.Name)
					exprs = append(exprs, expr.ColIdx{Idx: it.off + c, Typ: at.Type, Name: at.Name})
				}
			}
			continue
		}
		if col, table, ok := isTimeRef(item.Expr); ok {
			aliasIsTime := item.Alias == "" || item.Alias == col
			if aliasIsTime {
				off, err := findTime(sc, table, col)
				if err != nil {
					return nil, fmt.Errorf("sqlish: %v", err)
				}
				ref := expr.ColIdx{Idx: off, Typ: value.KindInt, Name: col}
				if col == "ts" {
					if tsExpr != nil {
						return nil, fmt.Errorf("sqlish: multiple unaliased Ts columns in SELECT")
					}
					tsExpr = ref
				} else {
					if teExpr != nil {
						return nil, fmt.Errorf("sqlish: multiple unaliased Te columns in SELECT")
					}
					teExpr = ref
				}
				continue
			}
		}
		e, err := a.resolve(item.Expr, sc, false)
		if err != nil {
			return nil, err
		}
		names = append(names, itemName(item, len(names)))
		exprs = append(exprs, e)
	}
	if (tsExpr == nil) != (teExpr == nil) {
		return nil, fmt.Errorf("sqlish: select either both Ts and Te or neither")
	}
	if tsExpr != nil {
		return a.planner.ProjectT(node, names, exprs, expr.Call("PERIOD", tsExpr, teExpr)), nil
	}
	return a.planner.Project(node, names, exprs), nil
}

// buildAggSelect handles GROUP BY / aggregate SELECT lists.
func (a *analyzer) buildAggSelect(st *selectStmt, node plan.Node, sc *scope) (plan.Node, error) {
	// Group-by terms: Ts/Te pairs switch on temporal grouping.
	var groupExprs []expr.Expr
	var groupRender []string
	groupTs, groupTe := false, false
	for _, g := range st.GroupBy {
		if col, table, ok := isTimeRef(g); ok {
			off, err := findTime(sc, table, col)
			if err != nil {
				return nil, fmt.Errorf("sqlish: %v", err)
			}
			_ = off
			if col == "ts" {
				groupTs = true
			} else {
				groupTe = true
			}
			continue
		}
		e, err := a.resolve(g, sc, false)
		if err != nil {
			return nil, err
		}
		groupExprs = append(groupExprs, e)
		groupRender = append(groupRender, render(g))
	}
	if groupTs != groupTe {
		return nil, fmt.Errorf("sqlish: GROUP BY must list both Ts and Te (or neither)")
	}
	groupByT := groupTs

	// Collect aggregates from SELECT and HAVING.
	var aggs []exec.AggSpec
	aggIndex := map[string]int{}
	collect := func(e sexpr) error {
		var err error
		walkSexpr(e, func(x sexpr) {
			if err != nil {
				return
			}
			c, ok := x.(sCall)
			if !ok || !isAggName(c.Name) {
				return
			}
			key := render(c)
			if _, dup := aggIndex[key]; dup {
				return
			}
			spec := exec.AggSpec{Name: fmt.Sprintf("agg%d", len(aggs))}
			switch c.Name {
			case "count":
				if c.Star {
					spec.Func = exec.AggCountStar
				} else {
					spec.Func = exec.AggCount
				}
			case "sum":
				spec.Func = exec.AggSum
			case "avg":
				spec.Func = exec.AggAvg
			case "min":
				spec.Func = exec.AggMin
			case "max":
				spec.Func = exec.AggMax
			}
			if !c.Star {
				if len(c.Args) != 1 {
					err = fmt.Errorf("sqlish: aggregate %s takes one argument", strings.ToUpper(c.Name))
					return
				}
				arg, rerr := a.resolve(c.Args[0], sc, false)
				if rerr != nil {
					err = rerr
					return
				}
				spec.Arg = arg
			}
			aggIndex[key] = len(aggs)
			aggs = append(aggs, spec)
		})
		return err
	}
	for _, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlish: * not allowed with GROUP BY")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if st.Having != nil {
		if err := collect(st.Having); err != nil {
			return nil, err
		}
	}

	groupNames := make([]string, len(groupExprs))
	for i := range groupExprs {
		groupNames[i] = fmt.Sprintf("g%d", i)
	}
	aggNode, err := a.planner.Aggregate(node, groupExprs, groupNames, groupByT, aggs)
	if err != nil {
		return nil, err
	}

	// Map SELECT items over the aggregate output: group expressions by
	// syntactic identity, aggregates by collected position, Ts/Te by the
	// group's valid time.
	aggOut := aggNode.Schema()
	var mapExpr func(e sexpr) (expr.Expr, error)
	mapExpr = func(e sexpr) (expr.Expr, error) {
		key := render(e)
		for i, gr := range groupRender {
			if gr == key {
				return expr.ColIdx{Idx: i, Typ: aggOut.Attrs[i].Type, Name: aggOut.Attrs[i].Name}, nil
			}
		}
		if c, ok := e.(sCall); ok && isAggName(c.Name) {
			i := aggIndex[key]
			pos := len(groupExprs) + i
			return expr.ColIdx{Idx: pos, Typ: aggOut.Attrs[pos].Type, Name: aggOut.Attrs[pos].Name}, nil
		}
		switch x := e.(type) {
		case sNum, sStr, sBool, sNull, sParam:
			return a.resolve(x, &scope{}, false)
		case sBin:
			l, err := mapExpr(x.L)
			if err != nil {
				return nil, err
			}
			r, err := mapExpr(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "and" || x.Op == "or" {
				return a.logic(x.Op, x.Pos, l, r)
			}
			resolved, err := a.resolve(sBin{Op: x.Op, L: sNum{Text: "0"}, R: sNum{Text: "0"}}, &scope{}, false)
			if err != nil {
				return nil, err
			}
			switch op := resolved.(type) {
			case expr.Cmp:
				return expr.Cmp{Op: op.Op, L: l, R: r}, nil
			case expr.Arith:
				return expr.Arith{Op: op.Op, L: l, R: r}, nil
			}
			return nil, fmt.Errorf("sqlish: unsupported operator %q over aggregates", x.Op)
		}
		return nil, fmt.Errorf("sqlish: %q must appear in GROUP BY or be an aggregate", key)
	}

	var names []string
	var exprs []expr.Expr
	sawTs, sawTe := false, false
	for _, item := range st.Items {
		if col, _, ok := isTimeRef(item.Expr); ok && (item.Alias == "" || item.Alias == col) {
			if !groupByT {
				return nil, fmt.Errorf("sqlish: selecting Ts/Te requires GROUP BY Ts, Te")
			}
			if col == "ts" {
				sawTs = true
			} else {
				sawTe = true
			}
			continue
		}
		e, err := mapExpr(item.Expr)
		if err != nil {
			return nil, err
		}
		names = append(names, itemName(item, len(names)))
		exprs = append(exprs, e)
	}
	_ = sawTs
	_ = sawTe

	out := plan.Node(aggNode)
	if st.Having != nil {
		having, err := mapHaving(a, st.Having, mapExpr)
		if err == nil {
			err = a.truth(having, "HAVING condition", st.HavingPos)
		}
		if err != nil {
			return nil, err
		}
		out = a.planner.Filter(out, having)
	}
	// Valid time: the aggregate node already carries the group's T (or the
	// zero interval when not grouping by time); the projection keeps it.
	return a.planner.Project(out, names, exprs), nil
}

func mapHaving(a *analyzer, e sexpr, mapExpr func(sexpr) (expr.Expr, error)) (expr.Expr, error) {
	switch x := e.(type) {
	case sBin:
		if x.Op == "and" || x.Op == "or" {
			l, err := mapHaving(a, x.L, mapExpr)
			if err != nil {
				return nil, err
			}
			r, err := mapHaving(a, x.R, mapExpr)
			if err != nil {
				return nil, err
			}
			return a.logic(x.Op, x.Pos, l, r)
		}
	case sNot:
		inner, err := mapHaving(a, x.X, mapExpr)
		if err != nil {
			return nil, err
		}
		return a.logic("not", x.Pos, inner, nil)
	}
	return mapExpr(e)
}

// walkSexpr visits every node of a surface expression.
func walkSexpr(e sexpr, fn func(sexpr)) {
	fn(e)
	switch x := e.(type) {
	case sBin:
		walkSexpr(x.L, fn)
		walkSexpr(x.R, fn)
	case sNot:
		walkSexpr(x.X, fn)
	case sIsNull:
		walkSexpr(x.X, fn)
	case sBetween:
		walkSexpr(x.X, fn)
		walkSexpr(x.Lo, fn)
		walkSexpr(x.Hi, fn)
	case sCall:
		for _, a := range x.Args {
			walkSexpr(a, fn)
		}
	}
}

func containsAgg(e sexpr) bool {
	found := false
	walkSexpr(e, func(x sexpr) {
		if c, ok := x.(sCall); ok && isAggName(c.Name) {
			found = true
		}
	})
	return found
}

// itemName derives an output column name.
func itemName(item selectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if r, ok := item.Expr.(sRef); ok {
		return r.Col
	}
	if c, ok := item.Expr.(sCall); ok {
		return strings.ToLower(c.Name)
	}
	return "col" + strconv.Itoa(pos)
}

// orderBy sorts node by the clause's ORDER BY keys, if any.
func (a *analyzer) orderBy(node plan.Node, ol orderLimit) (plan.Node, error) {
	if len(ol.OrderBy) == 0 {
		return node, nil
	}
	keys, err := a.orderKeys(ol.OrderBy, node.Schema())
	if err != nil {
		return nil, err
	}
	return a.planner.Sort(node, keys...), nil
}

// limit caps node at the clause's LIMIT after its OFFSET, if any.
func (a *analyzer) limit(node plan.Node, ol orderLimit) plan.Node {
	if ol.Limit == nil && ol.Offset == nil {
		return node
	}
	n, off := int64(-1), int64(0)
	if ol.Limit != nil {
		n = *ol.Limit
	}
	if ol.Offset != nil {
		off = *ol.Offset
	}
	return a.planner.Limit(node, n, off)
}

// orderKeys resolves ORDER BY terms against the output schema; Ts/Te sort
// on the valid time, names on columns, integers on ordinals.
func (a *analyzer) orderKeys(keys []orderKey, out schema.Schema) ([]exec.SortKey, error) {
	var sk []exec.SortKey
	for _, k := range keys {
		var e expr.Expr
		switch x := k.Expr.(type) {
		case sRef:
			if x.Table == "" && x.Col == "ts" {
				e = expr.TStart{}
			} else if x.Table == "" && x.Col == "te" {
				e = expr.TEnd{}
			} else {
				i := out.Index(x.Col)
				if i < 0 {
					return nil, fmt.Errorf("sqlish: ORDER BY: unknown output column %q", x.Col)
				}
				e = expr.ColIdx{Idx: i, Typ: out.Attrs[i].Type, Name: out.Attrs[i].Name}
			}
		case sNum:
			i, err := strconv.Atoi(x.Text)
			if err != nil || i < 1 || i > out.Len() {
				return nil, fmt.Errorf("sqlish: ORDER BY ordinal %q out of range", x.Text)
			}
			e = expr.ColIdx{Idx: i - 1, Typ: out.Attrs[i-1].Type, Name: out.Attrs[i-1].Name}
		default:
			return nil, fmt.Errorf("sqlish: ORDER BY supports column names, ordinals, Ts and Te")
		}
		sk = append(sk, exec.SortKey{Expr: e, Desc: k.Desc})
	}
	return sk, nil
}
