// Package plan implements the logical plan layer above the executor:
// statistics-based cardinality estimation, the paper's row estimates for
// the new Align/Normalize nodes (Sec. 6.2/6.3), plan construction helpers,
// and EXPLAIN rendering.
//
// Plans carry estimates, not costs, and nothing chooses between plans by
// them: a join whose condition has equi keys hashes on them, one without
// runs as a nested loop, alignment and normalization scan start-ordered
// runs of their group side, one per equi key (see AdjustmentNode), and
// inner joins run in the order written.
package plan

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/stats"
	"talign/internal/value"
)

// Default selectivities, for predicates that statistics do not cover.
const (
	EqSelectivity    = 0.005
	RangeSelectivity = 1.0 / 3.0
)

// Flags are the planner's settings: batch size and the two escape hatches
// of the differential tests.
type Flags struct {
	// BatchSize overrides the executor's DefaultBatchSize when > 0.
	BatchSize int
	// DisableOptimizer skips the rule-based rewrite pass (predicate
	// pushdown, projection pruning, constant folding) after analysis,
	// preserving the analyzer's literal plans. It exists as the escape
	// hatch for differential testing: optimized and unoptimized plans
	// must return identical results.
	DisableOptimizer bool
	// DisablePruning turns off zone-map segment pruning on scans of
	// storage-backed relations. Pruning only ever skips segments whose
	// zone proves the pushed-down predicate false for every row, so
	// results are identical either way; this flag exists for the
	// pruning on/off differential test and as an escape hatch.
	DisablePruning bool
}

// DefaultFlags is the production setting: the executor's batch size, the
// optimizer and zone-map pruning on.
func DefaultFlags() Flags { return Flags{} }

// Fingerprint renders the flags as a short stable string. Every field that
// can change plan shape participates, which makes the fingerprint a sound
// plan-cache key component: two flag sets with equal fingerprints always
// plan a statement identically.
func (f Flags) Fingerprint() string {
	b := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	return fmt.Sprintf("bs%d,op%c,zp%c", f.BatchSize, b(f.DisableOptimizer), b(f.DisablePruning))
}

// Node is a logical plan node with row estimates and a physical build.
// A node is immutable once its constructor returns, and each of its
// estimates — Rows and, where it has them, Stats — is computed the first
// time somebody asks and memoized (memoFloat, memoStats): asking again
// reads a field, so estimation stays linear in plan size however often
// the optimizer's rebuilds, EXPLAIN and the executors' presizing hints
// ask. A copy-constructor that changes what an estimate depends on must
// start from empty memos (ScanNode.WithPrune changes none of it: a scan's
// estimates read its relation).
type Node interface {
	Schema() schema.Schema
	Children() []Node
	// Rows is the estimated output cardinality.
	Rows() float64
	// Build instantiates the node's operator over its built inputs (see
	// ExecCtx.stream and ExecCtx.input; BuildRoot for a whole plan). Plans
	// are immutable and may be Built concurrently; what an execution binds
	// ($N parameters, guard state, shared materializations) travels in ctx,
	// which may be nil for parameterless one-shot plans.
	Build(ctx *ExecCtx) (exec.ColIterator, error)
	// Label describes the node for EXPLAIN.
	Label() string
}

// Planner constructs plan nodes under a set of flags.
type Planner struct {
	Flags Flags
	// Stats resolves table statistics during plan construction; nil means
	// no statistics (estimates fall back to the default selectivities).
	Stats StatsSource
}

// NewPlanner returns a planner with the given flags.
func NewPlanner(flags Flags) *Planner { return &Planner{Flags: flags} }

// StatsSource resolves ANALYZE statistics for named tables; the catalog
// layers (sqlish map catalogs, the server's versioned catalog snapshots)
// implement it.
type StatsSource interface {
	// TableStats returns the statistics for the (lower-cased) table name,
	// or nil when the table was never analyzed.
	TableStats(name string) *stats.Table
}

// Statser is implemented by plan nodes that can describe their output's
// column and interval statistics; derived nodes propagate their inputs'
// statistics through projections, filters and joins on a best-effort
// basis.
type Statser interface {
	// Stats returns the node's output statistics, or nil when unknown.
	Stats() *stats.Table
}

// memoFloat memoizes one Rows estimate. The zero value means
// "not computed yet": the stored bits are the value's XORed with a NaN
// payload no estimate produces. Two executions building the same cached
// plan may both compute an estimate; they store the same bits.
type memoFloat struct{ bits atomic.Uint64 }

const memoUnset = 0x7ff8_0000_dead_beef

// load returns the memoized estimate; ok is false before the first store.
func (m *memoFloat) load() (v float64, ok bool) {
	b := m.bits.Load()
	return math.Float64frombits(b ^ memoUnset), b != 0
}

// store memoizes v and returns it.
func (m *memoFloat) store(v float64) float64 {
	m.bits.Store(math.Float64bits(v) ^ memoUnset)
	return v
}

// memoStats memoizes a node's derived output statistics the same way;
// concurrent derivations yield equal, immutable tables, and whichever is
// stored last serves.
type memoStats struct{ p atomic.Pointer[stats.Table] }

// noStats marks "derived, and the node has none" in a memoStats.
var noStats = new(stats.Table)

// load returns the memoized statistics; ok is false before the first
// store.
func (m *memoStats) load() (t *stats.Table, ok bool) {
	switch t = m.p.Load(); t {
	case nil:
		return nil, false
	case noStats:
		return nil, true
	}
	return t, true
}

// store memoizes t (nil: the node has no statistics) and returns it.
func (m *memoStats) store(t *stats.Table) *stats.Table {
	if t == nil {
		m.p.Store(noStats)
	} else {
		m.p.Store(t)
	}
	return t
}

// NodeStats returns n's output statistics, or nil when n does not carry
// any.
func NodeStats(n Node) *stats.Table {
	if s, ok := n.(Statser); ok {
		return s.Stats()
	}
	return nil
}

// clampSel bounds a selectivity estimate to [1/max(rows, 1), 1]: a
// predicate keeps at least one row in expectation and never more than all
// of them. Without the clamp, stacked multiplicative estimates (e.g.
// math.Pow(EqSelectivity, len(keys))·2 over many join keys) underflow
// toward 0 or exceed 1 and poison every estimate above them.
func clampSel(sel, rows float64) float64 {
	lo := 1 / math.Max(rows, 1)
	if sel < lo {
		return lo
	}
	if sel > 1 {
		return 1
	}
	return sel
}

// distinctT returns the distinct-interval count of t's valid-time column,
// or 0 when unknown.
func distinctT(t *stats.Table) float64 {
	if t == nil {
		return 0
	}
	return t.T.DistinctT
}

// Explain renders the plan tree with estimates, one node per line.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s  (rows=%.0f)\n", n.Label(), n.Rows())
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// ----------------------------------------------------------------- scan

// ScanNode reads a materialized relation.
type ScanNode struct {
	Rel  *relation.Relation
	Name string
	// TableStats holds the table's ANALYZE statistics (nil when never
	// analyzed); derived nodes propagate them upward through Stats().
	TableStats *stats.Table

	// Prune, when set, carries the zone-checkable bounds of the filter
	// sitting directly above this scan; Build uses them to skip
	// segments of storage-backed relations (see prune.go). Relations
	// without segments ignore it.
	Prune *PruneBounds

	batch int
}

// Scan builds a scan node; name is used by EXPLAIN and resolves the
// table's statistics through the planner's StatsSource.
func (p *Planner) Scan(rel *relation.Relation, name string) *ScanNode {
	n := &ScanNode{Rel: rel, Name: name, batch: p.Flags.BatchSize}
	if p.Stats != nil && name != "" {
		n.TableStats = p.Stats.TableStats(strings.ToLower(name))
	}
	if n.TableStats == nil {
		// Never-ANALYZEd storage-backed tables still get coarse
		// statistics from their segment zone maps (row count, per-column
		// Min/Max and null fractions).
		if segs := rel.Segments(); segs != nil {
			n.TableStats = stats.FromSegments(segs)
		}
	}
	return n
}

func (s *ScanNode) Schema() schema.Schema { return s.Rel.Schema }
func (s *ScanNode) Children() []Node      { return nil }

// Rows is the relation's exact cardinality (the scan holds the data, so
// no estimate is needed even when statistics are stale).
func (s *ScanNode) Rows() float64 { return float64(s.Rel.Len()) }

// Stats implements Statser with the table's ANALYZE statistics.
func (s *ScanNode) Stats() *stats.Table { return s.TableStats }

// Build streams the relation's cached columnar image (zero-copy views, see
// relation.Columnar), or the segments that survive pruning, resolved at
// every Open under the frame's values of the moment, of the relation
// ctx.Rebinds puts in Rel's place, if any.
func (s *ScanNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	if s.prunes() {
		cs := exec.NewColSegScan(s.Rel.Schema, nil)
		cs.Prune = func(dst []relation.Segment) []relation.Segment { return s.pruneSegments(ctx, dst) }
		return exec.ApplyColBatch(cs, s.batch), nil
	}
	cs := exec.NewColScan(s.Rel)
	if ctx != nil {
		cs.Rebinds = &ctx.Rebinds
	}
	return exec.ApplyColBatch(cs, s.batch), nil
}

// prunes reports whether a segment scan should be used at all: false when
// the relation has no segments or there is nothing to prune on.
func (s *ScanNode) prunes() bool { return s.Prune != nil && s.Rel.Segments() != nil }

// pruneSegments appends to dst the relation's segments that survive
// s.Prune under the parameter values ctx holds now — once per execution:
// the scan asks at every Open. It also feeds the process-wide pruning
// counters and the context's SegObserver (EXPLAIN ANALYZE).
func (s *ScanNode) pruneSegments(ctx *ExecCtx, dst []relation.Segment) []relation.Segment {
	rel, params := s.Rel, []value.Value(nil)
	if ctx != nil {
		rel, params = ctx.Rebinds.Of(rel), ctx.Params
	}
	segs := rel.Segments()
	if segs == nil { // rebound to a relation of one image: all of it
		return append(dst, relation.Segment{Img: rel.Columnar(), Hi: rel.Len()})
	}
	keep := s.Prune.Filter(dst, segs, params)
	exec.SegmentsObserve(len(keep), len(segs)-len(keep))
	if ctx != nil && ctx.SegObserver != nil {
		ctx.SegObserver(s, len(keep), len(segs)-len(keep))
	}
	return keep
}

func (s *ScanNode) Label() string {
	name := s.Name
	if name == "" {
		name = "relation"
	}
	if s.Prune != nil {
		return "SeqScan " + name + " [prune: " + s.Prune.String() + "]"
	}
	return "SeqScan " + name
}

// ----------------------------------------------------------------- filter

// FilterNode applies a predicate.
type FilterNode struct {
	Input Node
	Pred  expr.Expr

	rows  memoFloat
	stats memoStats
}

// Filter builds a selection node; pred must be bound against input's
// schema.
func (p *Planner) Filter(input Node, pred expr.Expr) *FilterNode {
	return &FilterNode{Input: input, Pred: pred}
}

func (f *FilterNode) Schema() schema.Schema { return f.Input.Schema() }
func (f *FilterNode) Children() []Node      { return []Node{f.Input} }
func (f *FilterNode) Rows() float64 {
	if v, ok := f.rows.load(); ok {
		return v
	}
	in := f.Input.Rows()
	sel := clampSel(selectivity(f.Pred, NodeStats(f.Input)), in)
	return f.rows.store(math.Max(1, in*sel))
}

// Stats scales the input's statistics to the filtered cardinality; the
// per-column distributions are kept as-is (a standard, slightly
// optimistic approximation).
func (f *FilterNode) Stats() *stats.Table {
	if t, ok := f.stats.load(); ok {
		return t
	}
	in := NodeStats(f.Input)
	if in == nil {
		return f.stats.store(nil)
	}
	return f.stats.store(&stats.Table{Rows: int64(f.Rows()), Cols: in.Cols, T: in.T})
}

// Build evaluates the predicate over vectors, writing only the selection
// vector.
func (f *FilterNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.stream(f.Input)
	if err != nil {
		return nil, err
	}
	return exec.NewColFilter(in, ctx.bind(f.Pred)), nil
}
func (f *FilterNode) Label() string { return "Filter " + f.Pred.String() }

// selectivity estimates the fraction of tuples passing pred, consulting
// the input's column statistics (histograms for ranges, distinct counts
// for equality) where they exist and falling back to the classic
// constants where they do not.
func selectivity(pred expr.Expr, in *stats.Table) float64 {
	sel := 1.0
	for _, c := range expr.Conjuncts(pred) {
		sel *= conjunctSel(c, in)
	}
	return sel
}

// conjunctSel estimates one conjunct's selectivity.
func conjunctSel(c expr.Expr, in *stats.Table) float64 {
	switch e := c.(type) {
	case expr.Cmp:
		if col, v, op, ok := colConstCmp(e); ok {
			cs := in.Col(col)
			switch op {
			case expr.EQ:
				if s, ok := cs.SelEq(v); ok {
					return s
				}
			case expr.NE:
				if s, ok := cs.SelEq(v); ok {
					return 1 - s
				}
			case expr.LT:
				if s, ok := cs.SelRange(stats.OpLT, v); ok {
					return s
				}
			case expr.LE:
				if s, ok := cs.SelRange(stats.OpLE, v); ok {
					return s
				}
			case expr.GT:
				if s, ok := cs.SelRange(stats.OpGT, v); ok {
					return s
				}
			case expr.GE:
				if s, ok := cs.SelRange(stats.OpGE, v); ok {
					return s
				}
			}
		}
		if e.Op == expr.EQ {
			return EqSelectivity
		}
		return RangeSelectivity
	case expr.Between:
		if ci, isCol := e.X.(expr.ColIdx); isCol {
			lo, okLo := estVal(e.Lo)
			hi, okHi := estVal(e.Hi)
			if okLo && okHi {
				cs := in.Col(ci.Idx)
				ge, ok1 := cs.SelRange(stats.OpGE, lo)
				le, ok2 := cs.SelRange(stats.OpLE, hi)
				if ok1 && ok2 {
					s := ge + le - 1
					if s < 0 {
						s = 0
					}
					return s
				}
			}
		}
		return RangeSelectivity * RangeSelectivity * 4 // a modest range window
	default:
		return 0.5
	}
}

// colConstCmp normalizes a comparison between one column and one value
// known at plan time (see estVal) into (column index, value, operator);
// ok is false for any other shape (column-column, constant-constant,
// computed operands, the caller's own $N parameters).
func colConstCmp(e expr.Cmp) (col int, v value.Value, op expr.CmpOp, ok bool) {
	if ci, isCol := e.L.(expr.ColIdx); isCol {
		if cv, known := estVal(e.R); known {
			return ci.Idx, cv, e.Op, true
		}
	}
	if ci, isCol := e.R.(expr.ColIdx); isCol {
		if cv, known := estVal(e.L); known {
			return ci.Idx, cv, e.Op.Flip(), true
		}
	}
	return 0, value.Null, e.Op, false
}

// estVal is the operand value an ESTIMATE may use: a literal, or the
// literal a lifted placeholder was first seen with (bind peeking — the
// plan is estimated as if every statement of its shape carried the first
// one's values). Nothing that decides which rows qualify may call it: a
// true constant is an expr.Const and nothing else, which is what constant
// folding (package opt) and zone-map pruning (pruneCond.value) test for.
func estVal(e expr.Expr) (value.Value, bool) {
	switch x := e.(type) {
	case expr.Const:
		return x.V, true
	case expr.Param:
		if x.Peek != nil {
			return *x.Peek, true
		}
	}
	return value.Null, false
}

// ---------------------------------------------------------------- project

// ProjectNode evaluates output expressions.
type ProjectNode struct {
	Input Node
	Exprs []expr.Expr
	Names []string
	TMode exec.TPolicy
	TExpr expr.Expr

	out   schema.Schema
	stats memoStats
}

// Project builds a projection node that keeps its input's valid time.
func (p *Planner) Project(input Node, names []string, exprs []expr.Expr) *ProjectNode {
	return p.ProjectMode(input, names, exprs, exec.TKeep, nil)
}

// ProjectT builds a projection whose valid time comes from a period-typed
// expression; tuples with ω/empty periods are dropped.
func (p *Planner) ProjectT(input Node, names []string, exprs []expr.Expr, tExpr expr.Expr) *ProjectNode {
	return p.ProjectMode(input, names, exprs, exec.TFromExpr, tExpr)
}

// ProjectMode builds a projection under an explicit valid-time policy
// (tExpr is read under exec.TFromExpr only).
func (p *Planner) ProjectMode(input Node, names []string, exprs []expr.Expr, tmode exec.TPolicy, tExpr expr.Expr) *ProjectNode {
	attrs := make([]schema.Attr, len(exprs))
	for i := range exprs {
		attrs[i] = schema.Attr{Name: names[i], Type: exprs[i].Type()}
	}
	return &ProjectNode{
		Input: input, Exprs: exprs, Names: names, TMode: tmode, TExpr: tExpr,
		out: schema.Schema{Attrs: attrs},
	}
}

func (pr *ProjectNode) Schema() schema.Schema { return pr.out }
func (pr *ProjectNode) Children() []Node      { return []Node{pr.Input} }
func (pr *ProjectNode) Rows() float64         { return pr.Input.Rows() }

// Stats remaps the input's column statistics through pass-through column
// references — the columns are shared, not copied; computed output
// columns have none. Interval statistics survive only when the projection
// keeps the input's valid time.
func (pr *ProjectNode) Stats() *stats.Table {
	if t, ok := pr.stats.load(); ok {
		return t
	}
	in := NodeStats(pr.Input)
	if in == nil {
		return pr.stats.store(nil)
	}
	out := &stats.Table{Rows: in.Rows, Cols: make([]*stats.Column, len(pr.Exprs))}
	for i, e := range pr.Exprs {
		if ci, ok := e.(expr.ColIdx); ok {
			out.Cols[i] = in.Col(ci.Idx)
		}
	}
	if pr.TMode == exec.TKeep {
		out.T = in.T
	}
	return pr.stats.store(out)
}

// Build shuffles column headers when every output is a plain column, TS or
// TE reference, and evaluates the expressions per row otherwise.
func (pr *ProjectNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.stream(pr.Input)
	if err != nil {
		return nil, err
	}
	return exec.NewColProject(in, ctx.bindAll(pr.Exprs), pr.out, pr.TMode, ctx.bind(pr.TExpr)), nil
}
func (pr *ProjectNode) Label() string {
	parts := make([]string, len(pr.Exprs))
	for i, e := range pr.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// ------------------------------------------------------------------- sort

// SortNode orders its input.
type SortNode struct {
	Input Node
	Keys  []exec.SortKey

	batch int
}

// Sort builds a sort node.
func (p *Planner) Sort(input Node, keys ...exec.SortKey) *SortNode {
	return &SortNode{Input: input, Keys: keys, batch: p.Flags.BatchSize}
}

func (s *SortNode) Schema() schema.Schema { return s.Input.Schema() }
func (s *SortNode) Children() []Node      { return []Node{s.Input} }
func (s *SortNode) Rows() float64         { return s.Input.Rows() }

// Stats passes the input's statistics through (sorting reorders rows
// only).
func (s *SortNode) Stats() *stats.Table { return NodeStats(s.Input) }

func (s *SortNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.input(s.Input)
	if err != nil {
		return nil, err
	}
	so := exec.NewColSort(in, bindKeys(ctx, s.Keys)...)
	so.SizeHint = rowHint(s.Input)
	return exec.ApplyColBatch(so, s.batch), nil
}

// bindKeys substitutes ctx's parameters into sort-key expressions.
func bindKeys(ctx *ExecCtx, keys []exec.SortKey) []exec.SortKey {
	if ctx == nil || len(ctx.Params) == 0 || len(keys) == 0 {
		return keys
	}
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Expr: ctx.bind(k.Expr), Desc: k.Desc}
	}
	return out
}

// bindPairs substitutes ctx's parameters into equi-join pairs.
func bindPairs(ctx *ExecCtx, pairs []expr.EquiPair) []expr.EquiPair {
	if ctx == nil || len(ctx.Params) == 0 || len(pairs) == 0 {
		return pairs
	}
	out := make([]expr.EquiPair, len(pairs))
	for i, p := range pairs {
		out[i] = expr.EquiPair{Left: ctx.bind(p.Left), Right: ctx.bind(p.Right)}
	}
	return out
}
func (s *SortNode) Label() string { return fmt.Sprintf("Sort (%d keys)", len(s.Keys)) }

// ------------------------------------------------------------------- join

// JoinNode joins two inputs. Its access follows the condition's shape: a
// hash join on the equi keys (T among them under MatchT), or a nested loop
// when there are none.
type JoinNode struct {
	Left, Right Node
	Cond        expr.Expr // bound against Concat(left, right); may be nil
	Type        exec.JoinType
	MatchT      bool

	keys     []expr.EquiPair
	residual expr.Expr
	out      schema.Schema
	rows     float64
	stats    memoStats
	batch    int
}

// Join builds a join node and estimates its rows.
func (p *Planner) Join(l, r Node, cond expr.Expr, typ exec.JoinType, matchT bool) *JoinNode {
	j := &JoinNode{Left: l, Right: r, Cond: cond, Type: typ, MatchT: matchT, batch: p.Flags.BatchSize}
	if typ == exec.SemiJoin || typ == exec.AntiJoin {
		j.out = l.Schema()
	} else {
		j.out = l.Schema().Concat(r.Schema())
	}
	if cond != nil {
		j.keys, j.residual = expr.SplitJoinCondition(cond, l.Schema().Len())
	}
	if matchT {
		// The reduction rules compare adjusted timestamps with equality
		// only (Table 2): T becomes an ordinary equi-join key, which is
		// what lets reduced temporal joins hash.
		j.keys = append(j.keys, expr.EquiPair{Left: expr.TPeriod{}, Right: expr.TPeriod{}})
	}
	lr, rr := math.Max(l.Rows(), 1), math.Max(r.Rows(), 1)
	sel := joinSelectivity(j.Cond, j.keys, NodeStats(j.Left), NodeStats(j.Right))
	rows := lr * rr * clampSel(sel, lr*rr)
	switch j.Type {
	case exec.LeftOuterJoin:
		rows = math.Max(rows, lr)
	case exec.RightOuterJoin:
		rows = math.Max(rows, rr)
	case exec.FullOuterJoin:
		rows = math.Max(rows, lr+rr)
	case exec.SemiJoin, exec.AntiJoin:
		rows = lr * 0.5
	}
	j.rows = math.Max(rows, 1)
	return j
}

// joinSelectivity estimates a join condition's selectivity over the cross
// product: the product of the equi-key selectivities (distinct counts
// when statistics exist, EqSelectivity otherwise, the matched-T key from
// the distinct-interval counts), falling back to the classic constants
// for keyless conditions. Callers clamp the result to [1/(lr·rr), 1].
func joinSelectivity(cond expr.Expr, keys []expr.EquiPair, ls, rs *stats.Table) float64 {
	if cond == nil && len(keys) == 0 {
		return 1.0
	}
	if len(keys) == 0 {
		return RangeSelectivity
	}
	sel := 1.0
	statless := 0
	for _, k := range keys {
		if _, isT := k.Left.(expr.TPeriod); isT {
			if d := math.Max(distinctT(ls), distinctT(rs)); d > 0 {
				sel *= 1 / d
			} else {
				sel *= EqSelectivity
				statless++
			}
			continue
		}
		var lc, rc *stats.Column
		if ci, ok := k.Left.(expr.ColIdx); ok {
			lc = ls.Col(ci.Idx)
		}
		if ci, ok := k.Right.(expr.ColIdx); ok {
			rc = rs.Col(ci.Idx)
		}
		if s, ok := stats.EqJoinSel(lc, rc); ok {
			sel *= s
		} else {
			sel *= EqSelectivity
			statless++
		}
	}
	if statless == len(keys) {
		// Fully constant-based estimate: keep the classic ×2 fudge factor
		// that compensated for EqSelectivity's pessimism.
		sel *= 2
	}
	return sel
}

func (j *JoinNode) Schema() schema.Schema { return j.out }
func (j *JoinNode) Children() []Node      { return []Node{j.Left, j.Right} }
func (j *JoinNode) Rows() float64         { return j.rows }

// Stats concatenates the children's column statistics in output-schema
// order (semi/anti joins keep only the left side), sharing the columns;
// interval statistics do not survive a join.
func (j *JoinNode) Stats() *stats.Table {
	if t, ok := j.stats.load(); ok {
		return t
	}
	ls, rs := NodeStats(j.Left), NodeStats(j.Right)
	if ls == nil && rs == nil {
		return j.stats.store(nil)
	}
	out := &stats.Table{Rows: int64(j.rows), Cols: make([]*stats.Column, j.out.Len())}
	lw := j.Left.Schema().Len()
	for i := range out.Cols {
		if i < lw {
			out.Cols[i] = ls.Col(i)
		} else {
			out.Cols[i] = rs.Col(i - lw)
		}
	}
	return j.stats.store(out)
}

// Build runs the one join operator, exec.ColHashJoin, over guarded inputs
// (see ExecCtx.input). With no keys it is the nested loop: every build row
// in one chain, the whole condition as the residual.
func (j *JoinNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	l, err := ctx.input(j.Left)
	if err != nil {
		return nil, err
	}
	r, err := ctx.input(j.Right)
	if err != nil {
		return nil, err
	}
	hj := exec.NewColHashJoin(l, r, bindPairs(ctx, j.keys), ctx.bind(j.residual), j.Type, j.MatchT)
	hj.SizeHint = rowHint(j.Right)
	return exec.ApplyColBatch(hj, j.batch), nil
}

func (j *JoinNode) Label() string {
	cond := "true"
	if j.Cond != nil {
		cond = j.Cond.String()
	}
	t := ""
	if j.MatchT {
		t = " AND l.T = r.T"
	}
	method := "hash"
	if len(j.keys) == 0 {
		method = "nestloop"
	}
	return fmt.Sprintf("%s %s join ON %s%s", method, j.Type, cond, t)
}

// ------------------------------------------------------------- aggregation

// AggNode groups and aggregates.
type AggNode struct {
	Input    Node
	GroupBy  []expr.Expr
	Names    []string
	GroupByT bool
	Aggs     []exec.AggSpec

	out   schema.Schema
	rows  memoFloat
	batch int
}

// Aggregate builds an aggregation node.
func (p *Planner) Aggregate(input Node, groupBy []expr.Expr, names []string, groupByT bool, aggs []exec.AggSpec) (*AggNode, error) {
	out, err := exec.AggregateSchema(groupBy, names, aggs)
	if err != nil {
		return nil, err
	}
	return &AggNode{Input: input, GroupBy: groupBy, Names: names, GroupByT: groupByT, Aggs: aggs, out: out, batch: p.Flags.BatchSize}, nil
}

func (a *AggNode) Schema() schema.Schema { return a.out }
func (a *AggNode) Children() []Node      { return []Node{a.Input} }
func (a *AggNode) Rows() float64 {
	if v, ok := a.rows.load(); ok {
		return v
	}
	return a.rows.store(a.estimateRows())
}

// estimateRows is the group-count estimate: the product of the grouping
// keys' distinct counts where statistics exist, capped by the input.
func (a *AggNode) estimateRows() float64 {
	if len(a.GroupBy) == 0 && !a.GroupByT {
		return 1
	}
	in := a.Input.Rows()
	st := NodeStats(a.Input)
	groups, known := 1.0, false
	for _, g := range a.GroupBy {
		if ci, ok := g.(expr.ColIdx); ok {
			if c := st.Col(ci.Idx); c != nil && c.Distinct > 0 {
				groups *= c.Distinct
				known = true
				continue
			}
		}
		groups *= 10 // computed or unanalyzed key: a modest fan-out guess
	}
	if a.GroupByT {
		if d := distinctT(st); d > 0 {
			groups *= d
			known = true
		} else {
			groups *= 10
		}
	}
	if !known {
		return math.Max(1, in*0.1)
	}
	return math.Max(1, math.Min(groups, in))
}

// Build runs the aggregation operator, exec.ColHashAggregate, over a
// guarded input (see ExecCtx.input).
func (a *AggNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.input(a.Input)
	if err != nil {
		return nil, err
	}
	aggs := a.Aggs
	if ctx != nil && len(ctx.Params) > 0 {
		aggs = make([]exec.AggSpec, len(a.Aggs))
		for i, sp := range a.Aggs {
			sp.Arg = ctx.bind(sp.Arg)
			aggs[i] = sp
		}
	}
	agg, err := exec.NewColHashAggregate(in, ctx.bindAll(a.GroupBy), a.Names, a.GroupByT, aggs)
	if err != nil {
		return nil, err
	}
	return exec.ApplyColBatch(agg, a.batch), nil
}
func (a *AggNode) Label() string {
	return fmt.Sprintf("HashAggregate (%d group cols, byT=%v, %d aggs)", len(a.GroupBy), a.GroupByT, len(a.Aggs))
}

// ----------------------------------------------------------------- set ops

// SetOpNode implements union/intersect/except.
type SetOpNode struct {
	Left, Right Node
	Kind        exec.SetOpKind
}

// SetOp builds a set operation node.
func (p *Planner) SetOp(l, r Node, kind exec.SetOpKind) *SetOpNode {
	return &SetOpNode{Left: l, Right: r, Kind: kind}
}

func (s *SetOpNode) Schema() schema.Schema { return s.Left.Schema() }
func (s *SetOpNode) Children() []Node      { return []Node{s.Left, s.Right} }
func (s *SetOpNode) Rows() float64 {
	switch s.Kind {
	case exec.UnionOp:
		return s.Left.Rows() + s.Right.Rows()
	case exec.IntersectOp:
		return math.Min(s.Left.Rows(), s.Right.Rows()) * 0.5
	default:
		return s.Left.Rows() * 0.5
	}
}

// Build streams the left input into the set operation; the right input,
// which intersect and except drain at Open, is guarded (see ExecCtx.input).
func (s *SetOpNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	l, err := ctx.stream(s.Left)
	if err != nil {
		return nil, err
	}
	r, err := ctx.input(s.Right)
	if err != nil {
		return nil, err
	}
	op, err := exec.NewColSetOp(l, r, s.Kind)
	if err != nil {
		return nil, err
	}
	op.SizeHint = rowHint(s)
	return op, nil
}
func (s *SetOpNode) Label() string { return "SetOp " + s.Kind.String() }

// ---------------------------------------------------------------- distinct

// DistinctNode removes exact duplicates.
type DistinctNode struct {
	Input Node
}

// Distinct builds a duplicate-elimination node.
func (p *Planner) Distinct(input Node) *DistinctNode {
	return &DistinctNode{Input: input}
}

func (d *DistinctNode) Schema() schema.Schema { return d.Input.Schema() }
func (d *DistinctNode) Children() []Node      { return []Node{d.Input} }
func (d *DistinctNode) Rows() float64         { return math.Max(1, d.Input.Rows()*0.9) }
func (d *DistinctNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.stream(d.Input)
	if err != nil {
		return nil, err
	}
	op := exec.NewColDistinct(in)
	op.SizeHint = rowHint(d)
	return op, nil
}
func (d *DistinctNode) Label() string { return "Distinct" }

// ----------------------------------------------------------------- absorb

// AbsorbNode is the logical α node.
type AbsorbNode struct {
	Input Node

	batch int
}

// Absorb builds the temporal-duplicate elimination node (Def. 12).
func (p *Planner) Absorb(input Node) *AbsorbNode {
	return &AbsorbNode{Input: input, batch: p.Flags.BatchSize}
}

func (a *AbsorbNode) Schema() schema.Schema { return a.Input.Schema() }
func (a *AbsorbNode) Children() []Node      { return []Node{a.Input} }
func (a *AbsorbNode) Rows() float64         { return math.Max(1, a.Input.Rows()*0.9) }

// Build runs the absorb operator, exec.ColAbsorb, over a guarded input
// (see ExecCtx.input).
func (a *AbsorbNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	in, err := ctx.input(a.Input)
	if err != nil {
		return nil, err
	}
	ab := exec.NewColAbsorb(in)
	ab.SizeHint = rowHint(a.Input)
	return exec.ApplyColBatch(ab, a.batch), nil
}
func (a *AbsorbNode) Label() string { return "Absorb" }

// Run builds and drains a parameterless plan into a relation. It still
// allocates an ExecCtx: SharedNode memoization is per-context, so a nil
// context would re-materialize a WITH body once per reference.
func Run(n Node) (*relation.Relation, error) {
	return RunCtx(n, NewExecCtx())
}

// RunCtx builds and drains a plan under an explicit execution context.
func RunCtx(n Node, ctx *ExecCtx) (*relation.Relation, error) {
	it, err := BuildRoot(n, ctx)
	if err != nil {
		return nil, err
	}
	return exec.Collect(it)
}
