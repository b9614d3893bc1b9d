package sqlish

import (
	"fmt"
	"strconv"
	"strings"

	"talign/internal/core"
	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/schema"
	"talign/internal/value"
)

// analyzer turns ASTs into plans (the Analyze → Plan stages of the
// pipeline). Table names resolve against a base Catalog plus the WITH
// clauses of the current statement, which are planned as shared subtrees
// (materialized once per execution) instead of being evaluated eagerly —
// that is what lets a statement containing WITH be prepared once and
// executed many times with different parameters.
type analyzer struct {
	src      string // the statement text, for positioned errors
	base     Catalog
	with     map[string]plan.Node
	planner  *plan.Planner
	algebra  *core.Algebra
	maxParam int

	// nuser and lifted come from a statement parsed by ParseLifted: $N
	// above nuser is a hidden slot holding lifted[N-nuser-1].
	nuser  int
	lifted []value.Value
}

// newAnalyzer builds an analyzer under the given flags over the recorded
// catalog, which also feeds the planner the statistics the real catalog
// resolves (if any), so scan nodes pick up their tables' ANALYZE results.
func newAnalyzer(cat *depRecorder, flags plan.Flags) *analyzer {
	a := &analyzer{
		base:    cat,
		with:    map[string]plan.Node{},
		planner: plan.NewPlanner(flags),
		algebra: core.New(flags),
	}
	a.planner.Stats = cat
	return a
}

// lookup resolves a table name: WITH clauses shadow the base catalog.
func (a *analyzer) lookup(name string) (plan.Node, bool) {
	key := strings.ToLower(name)
	if n, ok := a.with[key]; ok {
		return n, true
	}
	if rel, ok := a.base.Lookup(key); ok {
		return a.planner.Scan(rel, name), true
	}
	return nil, false
}

// scopeItem is one visible FROM entity. tsOff/teOff point at the hidden
// columns holding the entity's valid time as data (the virtual Ts/Te).
type scopeItem struct {
	alias        string
	sch          schema.Schema
	off          int
	tsOff, teOff int
}

type scope struct {
	items []scopeItem
	width int
}

func (s *scope) shift(delta int) {
	for i := range s.items {
		s.items[i].off += delta
		s.items[i].tsOff += delta
		s.items[i].teOff += delta
	}
}

// addHidden wraps a node so its visible columns are followed by fresh
// __ts/__te columns reflecting the node's current valid time.
func (a *analyzer) addHidden(n plan.Node) plan.Node {
	sch := n.Schema()
	names := make([]string, 0, sch.Len()+2)
	exprs := make([]expr.Expr, 0, sch.Len()+2)
	for i, at := range sch.Attrs {
		names = append(names, at.Name)
		exprs = append(exprs, expr.ColIdx{Idx: i, Typ: at.Type, Name: at.Name})
	}
	names = append(names, "__ts", "__te")
	exprs = append(exprs, expr.TStart{}, expr.TEnd{})
	return a.planner.Project(n, names, exprs)
}

// visibleOnly strips hidden columns from an item's node.
func visibleSchema(items []scopeItem) []schema.Attr {
	var attrs []schema.Attr
	for _, it := range items {
		attrs = append(attrs, it.sch.Attrs...)
	}
	return attrs
}

// buildFrom compiles one from item.
func (a *analyzer) buildFrom(fi fromItem) (plan.Node, *scope, error) {
	switch f := fi.(type) {
	case fTable:
		src, ok := a.lookup(f.Name)
		if !ok {
			return nil, nil, fmt.Errorf("sqlish: unknown table %q", f.Name)
		}
		alias := f.Alias
		if alias == "" {
			alias = f.Name
		}
		sch := src.Schema()
		node := a.addHidden(src)
		sc := &scope{
			items: []scopeItem{{alias: alias, sch: sch, off: 0, tsOff: sch.Len(), teOff: sch.Len() + 1}},
			width: sch.Len() + 2,
		}
		return node, sc, nil

	case fSubquery:
		node, _, err := a.buildSelect(f.Query)
		if err == nil {
			node, err = a.orderBy(node, f.orderLimit)
		}
		if err != nil {
			return nil, nil, err
		}
		node = a.limit(node, f.orderLimit)
		wrapped := a.addHidden(node)
		n := node.Schema().Len()
		sc := &scope{
			items: []scopeItem{{alias: f.Alias, sch: node.Schema(), off: 0, tsOff: n, teOff: n + 1}},
			width: n + 2,
		}
		return wrapped, sc, nil

	case fAlign:
		if f.Alias == "" {
			return nil, nil, fmt.Errorf("sqlish: ALIGN requires an alias")
		}
		left, lsc, err := a.buildFrom(f.Left)
		if err != nil {
			return nil, nil, err
		}
		right, rsc, err := a.buildFrom(f.Right)
		if err != nil {
			return nil, nil, err
		}
		combined := combineScopes(lsc, rsc)
		theta, err := a.condition(f.Theta, f.ThetaPos, "ON", combined)
		if err != nil {
			return nil, nil, err
		}
		aligned := a.algebra.AlignPlan(left, right, theta)
		// The aligned node still carries the left side's stale hidden
		// columns; re-project to the visible columns and fresh times.
		visible := visibleSchema(lsc.items)
		node := a.addHidden(a.projectCols(aligned, lsc, visible))
		sc := &scope{
			items: []scopeItem{{alias: f.Alias, sch: schema.Schema{Attrs: visible}, off: 0, tsOff: len(visible), teOff: len(visible) + 1}},
			width: len(visible) + 2,
		}
		return node, sc, nil

	case fNormalize:
		if f.Alias == "" {
			return nil, nil, fmt.Errorf("sqlish: NORMALIZE requires an alias")
		}
		left, lsc, err := a.buildFrom(f.Left)
		if err != nil {
			return nil, nil, err
		}
		right, rsc, err := a.buildFrom(f.Right)
		if err != nil {
			return nil, nil, err
		}
		var rCols, sCols []int
		for _, name := range f.Using {
			rc, _, err := findColumn(lsc, "", name)
			if err != nil {
				return nil, nil, fmt.Errorf("sqlish: NORMALIZE USING: %v", err)
			}
			sc, _, err := findColumn(rsc, "", name)
			if err != nil {
				return nil, nil, fmt.Errorf("sqlish: NORMALIZE USING: %v", err)
			}
			rCols = append(rCols, rc)
			sCols = append(sCols, sc)
		}
		norm := a.algebra.NormalizePlan2(left, right, rCols, sCols)
		visible := visibleSchema(lsc.items)
		node := a.addHidden(a.projectCols(norm, lsc, visible))
		sc := &scope{
			items: []scopeItem{{alias: f.Alias, sch: schema.Schema{Attrs: visible}, off: 0, tsOff: len(visible), teOff: len(visible) + 1}},
			width: len(visible) + 2,
		}
		return node, sc, nil

	case fJoin:
		left, lsc, err := a.buildFrom(f.Left)
		if err != nil {
			return nil, nil, err
		}
		right, rsc, err := a.buildFrom(f.Right)
		if err != nil {
			return nil, nil, err
		}
		combined := combineScopes(lsc, rsc)
		var cond expr.Expr
		if f.On != nil {
			cond, err = a.condition(f.On, f.OnPos, "ON", combined)
			if err != nil {
				return nil, nil, err
			}
		}
		var jt exec.JoinType
		switch f.Type {
		case "inner", "cross":
			jt = exec.InnerJoin
		case "left":
			jt = exec.LeftOuterJoin
		case "right":
			jt = exec.RightOuterJoin
		case "full":
			jt = exec.FullOuterJoin
		default:
			return nil, nil, fmt.Errorf("sqlish: unsupported join type %q", f.Type)
		}
		node := a.planner.Join(left, right, cond, jt, false)
		return node, combined, nil
	}
	return nil, nil, fmt.Errorf("sqlish: unhandled from item %T", fi)
}

// projectCols projects a node (whose layout matches sc) down to the given
// visible attributes, keeping valid time.
func (a *analyzer) projectCols(n plan.Node, sc *scope, visible []schema.Attr) plan.Node {
	names := make([]string, 0, len(visible))
	exprs := make([]expr.Expr, 0, len(visible))
	i := 0
	for _, it := range sc.items {
		for c, at := range it.sch.Attrs {
			names = append(names, at.Name)
			exprs = append(exprs, expr.ColIdx{Idx: it.off + c, Typ: at.Type, Name: at.Name})
			i++
		}
	}
	return a.planner.Project(n, names, exprs)
}

func combineScopes(l, r *scope) *scope {
	out := &scope{width: l.width + r.width}
	out.items = append(out.items, l.items...)
	rr := &scope{items: append([]scopeItem{}, r.items...)}
	rr.shift(l.width)
	out.items = append(out.items, rr.items...)
	return out
}

// findColumn resolves a (qualified) name to an absolute column offset.
func findColumn(sc *scope, table, col string) (int, value.Kind, error) {
	found := -1
	var kind value.Kind
	for _, it := range sc.items {
		if table != "" && !strings.EqualFold(it.alias, table) {
			continue
		}
		if i := it.sch.Index(col); i >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("ambiguous column %q", col)
			}
			found = it.off + i
			kind = it.sch.Attrs[i].Type
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("unknown column %q", qualify(table, col))
	}
	return found, kind, nil
}

func qualify(table, col string) string {
	if table == "" {
		return col
	}
	return table + "." + col
}

// findTime resolves a Ts/Te reference to the hidden column of the named
// (or first) item.
func findTime(sc *scope, table, col string) (int, error) {
	for _, it := range sc.items {
		if table != "" && !strings.EqualFold(it.alias, table) {
			continue
		}
		if col == "ts" {
			return it.tsOff, nil
		}
		return it.teOff, nil
	}
	return 0, fmt.Errorf("unknown table %q for %s", table, col)
}

// aggregate function names.
func isAggName(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// resolve compiles a surface expression against a scope. When allowAgg is
// false, aggregate calls are rejected (they are only legal in SELECT and
// HAVING, where the caller extracts them first).
func (a *analyzer) resolve(e sexpr, sc *scope, allowAgg bool) (expr.Expr, error) {
	switch x := e.(type) {
	case sRef:
		if x.Col == "ts" || x.Col == "te" {
			off, err := findTime(sc, x.Table, x.Col)
			if err != nil {
				return nil, fmt.Errorf("sqlish: %v", err)
			}
			return expr.ColIdx{Idx: off, Typ: value.KindInt, Name: qualify(x.Table, x.Col)}, nil
		}
		off, kind, err := findColumn(sc, x.Table, x.Col)
		if err != nil {
			return nil, fmt.Errorf("sqlish: %v", err)
		}
		return expr.ColIdx{Idx: off, Typ: kind, Name: qualify(x.Table, x.Col)}, nil
	case sNum:
		if strings.Contains(x.Text, ".") {
			f, err := strconv.ParseFloat(x.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlish: bad number %q", x.Text)
			}
			return expr.Float(f), nil
		}
		i, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlish: bad number %q", x.Text)
		}
		return expr.Int(i), nil
	case sStr:
		return expr.Str(x.Text), nil
	case sBool:
		return expr.Bool(x.V), nil
	case sNull:
		return expr.Null, nil
	case sParam:
		if k := x.Idx - a.nuser; k >= 1 && k <= len(a.lifted) {
			return expr.Param{Idx: x.Idx, Peek: &a.lifted[k-1]}, nil
		}
		if x.Idx > a.maxParam {
			a.maxParam = x.Idx
		}
		return expr.Param{Idx: x.Idx}, nil
	case sNot:
		inner, err := a.resolve(x.X, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return a.logic("not", x.Pos, inner, nil)
	case sIsNull:
		inner, err := a.resolve(x.X, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return expr.IsNull{X: inner, Negate: x.Negate}, nil
	case sBetween:
		xx, err := a.resolve(x.X, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := a.resolve(x.Lo, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := a.resolve(x.Hi, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return expr.Between{X: xx, Lo: lo, Hi: hi}, nil
	case sBin:
		l, err := a.resolve(x.L, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := a.resolve(x.R, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "and", "or":
			return a.logic(x.Op, x.Pos, l, r)
		case "=":
			return expr.Eq(l, r), nil
		case "<>":
			return expr.Ne(l, r), nil
		case "<":
			return expr.Lt(l, r), nil
		case "<=":
			return expr.Le(l, r), nil
		case ">":
			return expr.Gt(l, r), nil
		case ">=":
			return expr.Ge(l, r), nil
		case "+":
			return expr.Add(l, r), nil
		case "-":
			return expr.Sub(l, r), nil
		case "*":
			return expr.Mul(l, r), nil
		case "/":
			return expr.Div(l, r), nil
		case "%":
			return expr.Mod(l, r), nil
		}
		return nil, fmt.Errorf("sqlish: unknown operator %q", x.Op)
	case sCall:
		if isAggName(x.Name) {
			return nil, fmt.Errorf("sqlish: aggregate %s not allowed here", strings.ToUpper(x.Name))
		}
		args := make([]expr.Expr, len(x.Args))
		for i, arg := range x.Args {
			r, err := a.resolve(arg, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			args[i] = r
		}
		// expr.Func.Eval indexes its arguments unchecked: a wrong arity
		// must die here, with the call's position, not at the first row.
		if err := expr.CheckCall(x.Name, len(args)); err != nil {
			e := newErrorAt(a.src, x.Pos, "%s", strings.TrimPrefix(err.Error(), "expr: "))
			e.Code = ErrAnalyze
			return nil, e
		}
		return expr.Call(x.Name, args...), nil
	}
	return nil, fmt.Errorf("sqlish: unhandled expression %T", e)
}

// truth rejects an expression standing where a truth value must: one whose
// type is known and is not bool (an untyped NULL or a $N may turn out to be
// one). The error is the caller's to fix before anything runs, so it is a
// request error; it points at pos.
func (a *analyzer) truth(e expr.Expr, what string, pos int) error {
	if k := e.Type(); k != value.KindBool && k != value.KindNull {
		err := newErrorAt(a.src, pos, "%s must be boolean, not %s: %s", what, k, e)
		err.Code = ErrRequest
		return err
	}
	return nil
}

// condition resolves a WHERE / ON / HAVING condition at pos.
func (a *analyzer) condition(e sexpr, pos int, clause string, sc *scope) (expr.Expr, error) {
	cond, err := a.resolve(e, sc, false)
	if err != nil {
		return nil, err
	}
	return cond, a.truth(cond, clause+" condition", pos)
}

// logic builds l AND r, l OR r or NOT l (the keyword at pos) over operands
// that are truth values.
func (a *analyzer) logic(op string, pos int, l, r expr.Expr) (expr.Expr, error) {
	for _, operand := range []expr.Expr{l, r} {
		if operand == nil {
			continue
		}
		if err := a.truth(operand, "operand of "+strings.ToUpper(op), pos); err != nil {
			return nil, err
		}
	}
	switch op {
	case "and":
		return expr.And(l, r), nil
	case "or":
		return expr.Or(l, r), nil
	}
	return expr.Neg(l), nil
}

// render canonicalizes a surface expression for GROUP BY matching.
func render(e sexpr) string {
	switch x := e.(type) {
	case sRef:
		return qualify(x.Table, x.Col)
	case sNum:
		return x.Text
	case sStr:
		return "'" + x.Text + "'"
	case sBool:
		return fmt.Sprint(x.V)
	case sNull:
		return "null"
	case sParam:
		return "$" + strconv.Itoa(x.Idx)
	case sNot:
		return "not(" + render(x.X) + ")"
	case sIsNull:
		if x.Negate {
			return "isnotnull(" + render(x.X) + ")"
		}
		return "isnull(" + render(x.X) + ")"
	case sBetween:
		return "between(" + render(x.X) + "," + render(x.Lo) + "," + render(x.Hi) + ")"
	case sBin:
		return "(" + render(x.L) + x.Op + render(x.R) + ")"
	case sCall:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = render(a)
		}
		star := ""
		if x.Star {
			star = "*"
		}
		return x.Name + "(" + star + strings.Join(parts, ",") + ")"
	}
	return fmt.Sprintf("%T", e)
}

// isTimeRef reports whether e is a bare or qualified Ts/Te reference.
func isTimeRef(e sexpr) (col string, table string, ok bool) {
	r, isRef := e.(sRef)
	if !isRef || (r.Col != "ts" && r.Col != "te") {
		return "", "", false
	}
	return r.Col, r.Table, true
}
