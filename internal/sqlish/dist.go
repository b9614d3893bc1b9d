package sqlish

// Distributed-planning support: the distsql coordinator needs to reason
// about a parsed statement — which base tables it touches, whether its
// FROM tree is colocatable under a hash partitioning, whether its
// aggregation admits a partial/final split. The AST is deliberately
// unexported, so this file is the one sanctioned window onto it: a
// conservative distillation (anything it cannot prove scatter-safe is
// reported as unsupported, and the coordinator falls back to gathering
// whole shards). Fragments are no rewritten SQL: every worker runs the
// statement itself up to a cut of its plan (cut.go).

import (
	"sort"
	"strconv"
)

// DistKind classifies a statement for the distributed planner.
type DistKind int

// Statement kinds the coordinator distinguishes: queries are distributed
// by strategy, the catalog-mutating kinds are broadcast or partitioned.
const (
	// DistSelect is a row-producing query (possibly EXPLAIN-wrapped).
	DistSelect DistKind = iota
	// DistAnalyze is a standalone ANALYZE <table>.
	DistAnalyze
	// DistCreate is CREATE TABLE <name> FROM CSV '<path>'.
	DistCreate
	// DistDrop is DROP TABLE <name>.
	DistDrop
)

// TableCol names one column of one base-table instance in a FROM tree.
type TableCol struct {
	// Table is the lower-cased base table name (not the alias).
	Table string
	// Col is the lower-cased column name.
	Col string
}

// DistInfo is the distributed planner's distilled view of a statement.
type DistInfo struct {
	// Kind classifies the statement.
	Kind DistKind
	// Explain and ExplainAnalyze mark EXPLAIN wrappers around a query.
	Explain        bool
	ExplainAnalyze bool
	// Tables lists the distinct base tables the statement references
	// (lower-cased, sorted; WITH names are resolved and excluded).
	Tables []string
	// Target is the table of ANALYZE/DROP or the name of CREATE.
	Target string
	// CreatePath is the CSV path of a CREATE TABLE statement.
	CreatePath string
	// OrderLimit reports an ORDER BY, LIMIT or OFFSET clause.
	OrderLimit bool
	// Shape describes a scatter-analyzable single-SELECT body; nil when
	// the statement needs the gather-all fallback (WITH, set operations,
	// subqueries, unresolvable references, ...).
	Shape *DistShape
}

// DistShape describes a single-SELECT body for scatter planning.
type DistShape struct {
	// Dedup is "", "distinct" or "absorb".
	Dedup string
	// HasAgg reports aggregate calls in the SELECT list or HAVING.
	HasAgg bool
	// HasGroupBy reports a GROUP BY clause of any shape.
	HasGroupBy bool
	// GroupByT reports temporal grouping (GROUP BY ..., Ts, Te).
	GroupByT bool
	// GroupRefs are the plain-column GROUP BY terms resolved to base
	// tables (time refs excluded). Nil when there is no GROUP BY or a
	// group term is not a resolvable column reference.
	GroupRefs []TableCol
	// PlainGroup reports that every non-time GROUP BY term resolved to a
	// base-table column.
	PlainGroup bool
	// ProjRefs are the bare column references in the SELECT list (star
	// expanded) resolved to base tables; used to prove dedup locality.
	ProjRefs []TableCol
	// Require maps each referenced base table to the partition column a
	// colocated scatter needs; tables absent from the map are
	// unconstrained (single-table scans).
	Require map[string]string
	// Colocatable reports that a consistent Require assignment exists —
	// every join/ALIGN/NORMALIZE boundary is bridged by an equi-condition
	// on the assigned columns.
	Colocatable bool
	// CanAggSplit reports that the aggregation admits a partial/final
	// split (plain grouped COUNT/SUM/MIN/MAX; AVG and global aggregates
	// are excluded and fall back to gather-all).
	CanAggSplit bool
}

// ------------------------------------------------------------ analysis

// DistInfo distills the statement for the distributed planner. The
// catalog resolves unqualified column references (the coordinator's
// schema stubs suffice — only schemas are consulted, never rows).
// Analysis is conservative: any construct it cannot prove scatter-safe
// leaves Shape nil, which the coordinator treats as gather-all.
func (st *Statement) DistInfo(cat Catalog) *DistInfo {
	a, err := st.tree()
	if err != nil {
		// A statement that does not parse names no table: the coordinator
		// declines it and local planning reports the syntax error.
		return &DistInfo{Kind: DistSelect}
	}
	info := &DistInfo{
		Kind:           DistSelect,
		Explain:        a.Explain && !a.ExplainAnalyze,
		ExplainAnalyze: a.ExplainAnalyze,
		OrderLimit:     len(a.OrderBy) > 0 || a.Limit != nil || a.Offset != nil,
	}
	switch {
	case a.Analyze != "":
		info.Kind = DistAnalyze
		info.Target = a.Analyze
		return info
	case a.Create != nil:
		info.Kind = DistCreate
		info.Target = a.Create.Name
		info.CreatePath = a.Create.CSVPath
		return info
	case a.Drop != "":
		info.Kind = DistDrop
		info.Target = a.Drop
		return info
	}
	info.Tables = collectBaseTables(a)
	if len(a.With) == 0 && a.Body != nil && a.Body.Select != nil {
		info.Shape = distillSelect(a.Body.Select, cat)
	}
	return info
}

// collectBaseTables walks the whole statement (WITH bodies, set-operation
// branches, subqueries, ALIGN/NORMALIZE subtrees) collecting base-table
// names; WITH-introduced names shadow base tables.
func collectBaseTables(a *statement) []string {
	seen := map[string]bool{}
	shadow := map[string]bool{}
	var fromItems func(items []fromItem)
	var query func(q *queryExpr)
	var sel func(s *selectStmt)
	var item func(f fromItem)
	item = func(f fromItem) {
		switch x := f.(type) {
		case fTable:
			if !shadow[x.Name] {
				seen[x.Name] = true
			}
		case fSubquery:
			sel(x.Query)
		case fAlign:
			item(x.Left)
			item(x.Right)
		case fNormalize:
			item(x.Left)
			item(x.Right)
		case fJoin:
			item(x.Left)
			item(x.Right)
		}
	}
	fromItems = func(items []fromItem) {
		for _, f := range items {
			item(f)
		}
	}
	sel = func(s *selectStmt) {
		if s == nil {
			return
		}
		fromItems(s.From)
	}
	query = func(q *queryExpr) {
		if q == nil {
			return
		}
		if q.Select != nil {
			sel(q.Select)
		}
		if q.Set != nil {
			query(q.Set.Left)
			sel(q.Set.Right)
		}
	}
	for _, w := range a.With {
		query(w.Query)
		shadow[w.Name] = true
	}
	query(a.Body)
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// dinst is one base-table instance in a FROM tree.
type dinst struct {
	id    int
	table string
	cols  map[string]bool
}

// dcol is one visible output column with its source instance.
type dcol struct {
	name string
	inst *dinst
	col  string
}

// dbind is one name (table alias or composite alias) usable for
// qualified references, with its visible columns.
type dbind struct {
	name string
	cols []dcol
}

// dnode identifies one (instance, column) vertex in the equality graph.
type dnode struct {
	inst *dinst
	col  string
}

// dboundary is one binary operator in the FROM tree whose matching
// semantics require colocation: the instance sets of its two subtrees
// and the direct equi-conditions bridging them.
type dboundary struct {
	left, right map[int]bool
	pairs       [][2]dnode
}

// dwalker accumulates the colocation analysis over a FROM tree.
type dwalker struct {
	cat        Catalog
	nextID     int
	insts      []*dinst
	boundaries []*dboundary
	equis      [][2]dnode // every resolved equality, boundary-crossing or not
	ok         bool
}

// walkFrom analyzes one FROM item, returning its bindings, visible
// columns and instance set. ok=false (on the walker) marks the tree
// unsupported.
func (w *dwalker) walkFrom(f fromItem) (binds []dbind, cols []dcol, insts map[int]bool) {
	insts = map[int]bool{}
	switch x := f.(type) {
	case fTable:
		rel, found := w.cat.Lookup(x.Name)
		if !found {
			w.ok = false
			return
		}
		in := &dinst{id: w.nextID, table: x.Name, cols: map[string]bool{}}
		w.nextID++
		w.insts = append(w.insts, in)
		insts[in.id] = true
		name := x.Alias
		if name == "" {
			name = x.Name
		}
		for _, at := range rel.Schema.Attrs {
			in.cols[at.Name] = true
			cols = append(cols, dcol{name: at.Name, inst: in, col: at.Name})
		}
		binds = []dbind{{name: name, cols: cols}}
		return
	case fAlign:
		lb, lc, li := w.walkFrom(x.Left)
		rb, _, ri := w.walkFrom(x.Right)
		if !w.ok {
			return
		}
		scope := append(append([]dbind{}, lb...), rb...)
		w.boundary(li, ri, w.equiPairs(conjuncts(x.Theta), scope, li, ri))
		for id := range li {
			insts[id] = true
		}
		for id := range ri {
			insts[id] = true
		}
		// ALIGN keeps the left operand's attributes.
		cols = lc
		if x.Alias != "" {
			binds = []dbind{{name: x.Alias, cols: cols}}
		} else {
			binds = lb
		}
		return
	case fNormalize:
		lb, lc, li := w.walkFrom(x.Left)
		rb, rc, ri := w.walkFrom(x.Right)
		if !w.ok {
			return
		}
		var pairs [][2]dnode
		for _, c := range x.Using {
			ln, lok := resolveIn(lb, sRef{Col: c})
			rn, rok := resolveIn(rb, sRef{Col: c})
			if lok && rok {
				// USING columns are equality boundaries; they must enter the
				// global graph or colocationKey never sees a bridging class.
				w.equis = append(w.equis, [2]dnode{ln, rn})
				pairs = append(pairs, [2]dnode{ln, rn})
			}
		}
		_ = rc
		w.boundary(li, ri, pairs)
		for id := range li {
			insts[id] = true
		}
		for id := range ri {
			insts[id] = true
		}
		cols = lc
		if x.Alias != "" {
			binds = []dbind{{name: x.Alias, cols: cols}}
		} else {
			binds = lb
		}
		return
	case fJoin:
		lb, lc, li := w.walkFrom(x.Left)
		rb, rc, ri := w.walkFrom(x.Right)
		if !w.ok {
			return
		}
		scope := append(append([]dbind{}, lb...), rb...)
		var pairs [][2]dnode
		if x.On != nil {
			pairs = w.equiPairs(conjuncts(x.On), scope, li, ri)
		}
		w.boundary(li, ri, pairs)
		for id := range li {
			insts[id] = true
		}
		for id := range ri {
			insts[id] = true
		}
		binds = scope
		cols = append(append([]dcol{}, lc...), rc...)
		return
	default: // fSubquery and anything new
		w.ok = false
		return
	}
}

// boundary records one binary matching boundary.
func (w *dwalker) boundary(left, right map[int]bool, pairs [][2]dnode) {
	w.boundaries = append(w.boundaries, &dboundary{left: left, right: right, pairs: pairs})
}

// equiPairs resolves `ref = ref` conjuncts against scope, recording every
// resolved equality into the global graph and returning the subset that
// bridges the (left, right) instance sets.
func (w *dwalker) equiPairs(conj []sexpr, scope []dbind, left, right map[int]bool) [][2]dnode {
	var crossing [][2]dnode
	for _, c := range conj {
		b, isBin := c.(sBin)
		if !isBin || b.Op != "=" {
			continue
		}
		lr, lok := b.L.(sRef)
		rr, rok := b.R.(sRef)
		if !lok || !rok {
			continue
		}
		ln, lfound := resolveIn(scope, lr)
		rn, rfound := resolveIn(scope, rr)
		if !lfound || !rfound {
			continue
		}
		w.equis = append(w.equis, [2]dnode{ln, rn})
		if (left[ln.inst.id] && right[rn.inst.id]) || (left[rn.inst.id] && right[ln.inst.id]) {
			crossing = append(crossing, [2]dnode{ln, rn})
		}
	}
	return crossing
}

// conjuncts flattens an AND tree into its conjuncts.
func conjuncts(e sexpr) []sexpr {
	if e == nil {
		return nil
	}
	if b, ok := e.(sBin); ok && b.Op == "and" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sexpr{e}
}

// resolveIn resolves a column reference against bindings: qualified refs
// match a binding name, bare refs must be unambiguous. Ts/Te never
// resolve (they are the valid-time bounds, not columns).
func resolveIn(binds []dbind, r sRef) (dnode, bool) {
	if r.Table == "" && (r.Col == "ts" || r.Col == "te") {
		return dnode{}, false
	}
	var found dnode
	n := 0
	for _, b := range binds {
		if r.Table != "" && b.name != r.Table {
			continue
		}
		for _, c := range b.cols {
			if c.name == r.Col {
				found = dnode{inst: c.inst, col: c.col}
				n++
				break // first match within one binding wins
			}
		}
		if r.Table != "" {
			break
		}
	}
	if r.Table != "" {
		return found, n == 1
	}
	return found, n == 1
}

// distillSelect analyzes one SELECT body for scatter planning.
func distillSelect(sel *selectStmt, cat Catalog) *DistShape {
	w := &dwalker{cat: cat, ok: true}
	var topBinds []dbind
	var topCols []dcol
	accum := map[int]bool{}
	whereConj := conjuncts(sel.Where)
	for i, f := range sel.From {
		binds, cols, insts := w.walkFrom(f)
		if !w.ok {
			return nil
		}
		if i > 0 {
			// Comma-list items are inner-joined; WHERE conjuncts supply the
			// bridging equi-conditions for these implicit boundaries.
			scope := append(append([]dbind{}, topBinds...), binds...)
			w.boundary(accum, insts, w.equiPairs(whereConj, scope, accum, insts))
			merged := map[int]bool{}
			for id := range accum {
				merged[id] = true
			}
			for id := range insts {
				merged[id] = true
			}
			accum = merged
		} else {
			accum = insts
		}
		topBinds = append(topBinds, binds...)
		topCols = append(topCols, cols...)
	}
	if len(w.insts) == 0 {
		return nil
	}
	// Also feed WHERE equalities into the global equality graph even for
	// single-item FROMs (they can chain classes through a table).
	w.equiPairs(whereConj, topBinds, map[int]bool{}, map[int]bool{})

	shape := &DistShape{}
	switch sel.Dedup {
	case dedupDistinct:
		shape.Dedup = "distinct"
	case dedupAbsorb:
		shape.Dedup = "absorb"
	}

	// Projected bare columns (star expands to every visible column).
	for _, it := range sel.Items {
		if it.Star {
			for _, c := range topCols {
				shape.ProjRefs = append(shape.ProjRefs, TableCol{Table: c.inst.table, Col: c.col})
			}
			continue
		}
		if r, ok := it.Expr.(sRef); ok {
			if n, ok := resolveIn(topBinds, r); ok {
				shape.ProjRefs = append(shape.ProjRefs, TableCol{Table: n.inst.table, Col: n.col})
			}
		}
	}

	// GROUP BY terms: Ts/Te pairs flag temporal grouping, the rest must
	// be plain resolvable columns for a split or locality proof.
	shape.HasGroupBy = len(sel.GroupBy) > 0
	shape.PlainGroup = true
	for _, g := range sel.GroupBy {
		if _, _, ok := isTimeRef(g); ok {
			shape.GroupByT = true
			continue
		}
		r, isRef := g.(sRef)
		if !isRef {
			shape.PlainGroup = false
			continue
		}
		n, ok := resolveIn(topBinds, r)
		if !ok {
			shape.PlainGroup = false
			continue
		}
		shape.GroupRefs = append(shape.GroupRefs, TableCol{Table: n.inst.table, Col: n.col})
	}

	shape.HasAgg = selHasAgg(sel)
	shape.Require, shape.Colocatable = colocationKey(w)
	shape.CanAggSplit = canAggSplit(sel, topBinds)
	return shape
}

// selHasAgg reports aggregate calls in the SELECT list or HAVING.
func selHasAgg(sel *selectStmt) bool {
	found := false
	var walk func(e sexpr)
	walk = func(e sexpr) {
		switch x := e.(type) {
		case sCall:
			if isAggName(x.Name) {
				found = true
			}
			for _, a := range x.Args {
				walk(a)
			}
		case sBin:
			walk(x.L)
			walk(x.R)
		case sNot:
			walk(x.X)
		case sIsNull:
			walk(x.X)
		case sBetween:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		}
	}
	for _, it := range sel.Items {
		if it.Expr != nil {
			walk(it.Expr)
		}
	}
	if sel.Having != nil {
		walk(sel.Having)
	}
	return found
}

// colocationKey searches the equality graph for one equivalence class
// that covers every instance and bridges every boundary with a direct
// equi-condition; the per-table column choice becomes the required
// partitioning. Two instances of one table demanding different columns
// make the tree non-colocatable under a single physical partitioning.
func colocationKey(w *dwalker) (map[string]string, bool) {
	req := map[string]string{}
	if len(w.insts) == 1 && len(w.boundaries) == 0 {
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
	key := func(n dnode) string { return strconv.Itoa(n.inst.id) + "." + n.col }
	for _, eq := range w.equis {
		union(key(eq[0]), key(eq[1]))
	}
	// Candidate classes, ordered deterministically by root key.
	roots := map[string][]dnode{}
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
		covered := map[int]string{} // inst id -> chosen column (first seen)
		for _, n := range nodes {
			if _, ok := covered[n.inst.id]; !ok {
				covered[n.inst.id] = n.col
			}
		}
		if len(covered) != len(w.insts) {
			continue
		}
		ok := true
		for _, b := range w.boundaries {
			bridged := false
			for _, p := range b.pairs {
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
		for _, in := range w.insts {
			col := covered[in.id]
			if prev, seen := assign[in.table]; seen && prev != col {
				consistent = false
				break
			}
			assign[in.table] = col
		}
		if consistent {
			return assign, true
		}
	}
	return nil, false
}

// canAggSplit reports whether the aggregation admits a partial/final
// split: a non-empty plain-column GROUP BY (plus optional Ts/Te) and a
// SELECT list of group-matching references and COUNT/SUM/MIN/MAX calls.
// AVG and global (ungrouped) aggregates are excluded — the float
// accumulation order and empty-input row semantics would diverge from
// the single-node pipeline — as are arithmetic expressions over
// aggregates.
func canAggSplit(sel *selectStmt, binds []dbind) bool {
	if !selHasAgg(sel) || len(sel.GroupBy) == 0 {
		return false
	}
	groupKeys := map[string]bool{}
	plain := 0
	for _, g := range sel.GroupBy {
		if _, _, ok := isTimeRef(g); ok {
			continue
		}
		groupKeys[render(g)] = true
		plain++
	}
	if plain == 0 {
		return false // purely temporal grouping: final regroup alone is fine, but keep it simple
	}
	okAgg := func(c sCall) bool {
		switch c.Name {
		case "count":
			return c.Star || len(c.Args) == 1
		case "sum", "min", "max":
			return len(c.Args) == 1
		}
		return false
	}
	for _, it := range sel.Items {
		if it.Star {
			return false
		}
		if _, _, ok := isTimeRef(it.Expr); ok {
			continue
		}
		if groupKeys[render(it.Expr)] {
			continue
		}
		c, isCall := it.Expr.(sCall)
		if !isCall || !isAggName(c.Name) || !okAgg(c) {
			return false
		}
	}
	if sel.Having != nil && !havingSplittable(sel.Having, groupKeys, okAgg) {
		return false
	}
	return true
}

// havingSplittable checks a HAVING tree: every column reference must be a
// group term or live inside a splittable aggregate call.
func havingSplittable(e sexpr, groupKeys map[string]bool, okAgg func(sCall) bool) bool {
	if e == nil {
		return true
	}
	if groupKeys[render(e)] {
		return true
	}
	if _, _, ok := isTimeRef(e); ok {
		return true
	}
	switch x := e.(type) {
	case sRef:
		return false // unmatched bare reference
	case sCall:
		if isAggName(x.Name) {
			return okAgg(x)
		}
		for _, a := range x.Args {
			if !havingSplittable(a, groupKeys, okAgg) {
				return false
			}
		}
		return true
	case sBin:
		return havingSplittable(x.L, groupKeys, okAgg) && havingSplittable(x.R, groupKeys, okAgg)
	case sNot:
		return havingSplittable(x.X, groupKeys, okAgg)
	case sIsNull:
		return havingSplittable(x.X, groupKeys, okAgg)
	case sBetween:
		return havingSplittable(x.X, groupKeys, okAgg) &&
			havingSplittable(x.Lo, groupKeys, okAgg) &&
			havingSplittable(x.Hi, groupKeys, okAgg)
	default:
		return true // literals, params
	}
}
