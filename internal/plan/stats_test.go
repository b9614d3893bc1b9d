package plan

import (
	"math"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/stats"
	"talign/internal/value"
)

// analyzedScan attaches freshly computed statistics to a scan, as the
// catalog layers do after ANALYZE.
func analyzedScan(p *Planner, n int, name string) *ScanNode {
	rel := sampleRel(n)
	s := p.Scan(rel, name)
	s.TableStats = stats.Analyze(rel)
	return s
}

// TestSelectivityClampRegression pins the fix for the multi-key join
// selectivity formula: math.Pow(EqSelectivity, len(keys))·2 underflows
// toward 0 for long key lists, and every selectivity the planner computes
// must stay within [1/max(rows, 1), 1].
func TestSelectivityClampRegression(t *testing.T) {
	if got := clampSel(1e-30, 100); got != 0.01 {
		t.Fatalf("clampSel(1e-30, 100) = %v, want 0.01 (the 1/rows floor)", got)
	}
	if got := clampSel(5, 100); got != 1 {
		t.Fatalf("clampSel(5, 100) = %v, want 1", got)
	}
	if got := clampSel(0.5, 0); got != 1 {
		t.Fatalf("clampSel(0.5, 0) = %v, want 1 (the floor is 1/max(rows, 1))", got)
	}

	// Eight constant-based keys: the naive product is ~7.8e-19; clamped
	// over a 10×10 cross product it must report exactly the 1/100 floor.
	keys := make([]expr.EquiPair, 8)
	for i := range keys {
		keys[i] = expr.EquiPair{Left: expr.CI(0, value.KindInt), Right: expr.CI(0, value.KindInt)}
	}
	sel := joinSelectivity(expr.Bool(true), keys, nil, nil)
	if clamped := clampSel(sel, 100); clamped != 1.0/100 {
		t.Fatalf("clamped 8-key selectivity = %v, want 1/100", clamped)
	}

	// End to end: the join's row estimate stays within [1, lr·rr].
	p := NewPlanner(DefaultFlags())
	rel := sampleRel(10)
	cond := expr.And(
		expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt)),
		expr.Eq(expr.CI(1, value.KindInt), expr.CI(3, value.KindInt)),
	)
	j := p.Join(p.Scan(rel, "r"), p.Scan(rel, "s"), cond, exec.InnerJoin, false)
	if j.Rows() < 1 || j.Rows() > 100 {
		t.Fatalf("2-key join row estimate %v outside [1, 100]", j.Rows())
	}
}

// TestStatsFedFilterEstimate: with ANALYZE statistics an equality filter
// estimates from the distinct count and a range filter from the
// histogram, instead of the hard-coded constants.
func TestStatsFedFilterEstimate(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	scan := analyzedScan(p, 1000, "r") // k = i%10 (10 distinct), v = i

	eq := p.Filter(scan, expr.Eq(expr.CI(0, value.KindInt), expr.Int(3)))
	if got := eq.Rows(); math.Abs(got-100) > 20 {
		t.Fatalf("k=3 estimate %v, want ~100 (1000/10 via distinct count)", got)
	}

	rng := p.Filter(scan, expr.Lt(expr.CI(1, value.KindInt), expr.Int(500)))
	if got := rng.Rows(); math.Abs(got-500) > 100 {
		t.Fatalf("v<500 estimate %v, want ~500 via histogram", got)
	}

	// Out-of-range equality collapses to the floor, not EqSelectivity.
	miss := p.Filter(scan, expr.Eq(expr.CI(0, value.KindInt), expr.Int(99)))
	if got := miss.Rows(); got > 2 {
		t.Fatalf("k=99 estimate %v, want ~1 (outside [min, max])", got)
	}

	// Without statistics the classic constants still apply.
	noStats := p.Filter(p.Scan(sampleRel(1000), "r"), expr.Eq(expr.CI(0, value.KindInt), expr.Int(3)))
	if got := noStats.Rows(); got != 1000*EqSelectivity {
		t.Fatalf("stat-less estimate %v, want %v", got, 1000*EqSelectivity)
	}
}

// TestStatsFedJoinEstimate: equi-join cardinality comes from
// 1/max(distinct) when both sides are analyzed.
func TestStatsFedJoinEstimate(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	l, r := analyzedScan(p, 1000, "l"), analyzedScan(p, 1000, "r")
	j := p.Join(l, r, equiCond(2), exec.InnerJoin, false)
	want := 1000.0 * 1000.0 / 10.0 // 10 distinct keys on both sides
	if got := j.Rows(); math.Abs(got-want)/want > 0.2 {
		t.Fatalf("analyzed join estimate %v, want ~%v", got, want)
	}
	nj := p.Join(p.Scan(sampleRel(1000), "l"), p.Scan(sampleRel(1000), "r"), equiCond(2), exec.InnerJoin, false)
	if got := nj.Rows(); got == j.Rows() {
		t.Fatalf("stat-less join estimate should differ from the stats-fed one, both %v", got)
	}
}

// TestStatsFedAggEstimate: group counts come from distinct counts.
func TestStatsFedAggEstimate(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	scan := analyzedScan(p, 1000, "r")
	agg, err := p.Aggregate(scan, []expr.Expr{expr.CI(0, value.KindInt)}, []string{"k"}, false,
		[]exec.AggSpec{{Func: exec.AggCountStar, Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Rows(); got != 10 {
		t.Fatalf("analyzed aggregate estimate %v, want exactly 10 groups", got)
	}
}

// TestStatsPropagation: filters and projections pass statistics through,
// so estimates stay stats-fed above them.
func TestStatsPropagation(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	scan := analyzedScan(p, 1000, "r")
	proj := p.Project(scan, []string{"k"}, []expr.Expr{expr.CI(0, value.KindInt)})
	f := p.Filter(proj, expr.Eq(expr.CI(0, value.KindInt), expr.Int(3)))
	if got := f.Rows(); math.Abs(got-100) > 20 {
		t.Fatalf("estimate above projection %v, want ~100", got)
	}
	st := NodeStats(f)
	if st == nil || st.Col(0) == nil || st.Col(0).Distinct != 10 {
		t.Fatalf("stats did not propagate through project+filter: %+v", st)
	}
}

// TestExplainAnalyzeCounts executes a plan under instrumentation and
// checks the rendered actual row counts.
func TestExplainAnalyzeCounts(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	scan := analyzedScan(p, 1000, "r")
	f := p.Filter(scan, expr.Eq(expr.CI(0, value.KindInt), expr.Int(3)))
	text, rel, err := ExplainAnalyze(f, NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 100 {
		t.Fatalf("result rows = %d, want 100", rel.Len())
	}
	for _, part := range []string{"(actual rows=100)", "(actual rows=1000)"} {
		if !strings.Contains(text, part) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", part, text)
		}
	}
}

// TestNodeEstimatesMemoized: a node's Rows and Stats are computed
// once, the first time they are asked for, from its inputs' — asking
// again reads fields.
// Walking a plan that has every node kind and asking every node for both
// allocates nothing, however deep the plan; before, each call
// re-derived its whole subtree and ProjectNode.Stats copied every column.
func TestNodeEstimatesMemoized(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	r, s := analyzedScan(p, 200, "r"), analyzedScan(p, 100, "s")
	col := func(i int) expr.Expr { return expr.CI(i, value.KindInt) }
	left := p.Project(p.Filter(r, expr.Ge(col(1), expr.Int(20))), []string{"k", "v"}, []expr.Expr{col(0), col(1)})
	right := p.ProjectT(p.Shared(s), []string{"k", "v"}, []expr.Expr{col(0), col(1)}, expr.Call("PERIOD", expr.TStart{}, expr.TEnd{}))
	join := p.Join(left, right, equiCond(2), exec.InnerJoin, false)
	align := p.FusedAlign(p.Project(join, []string{"k", "v"}, []expr.Expr{col(0), col(1)}), left, equiCond(2), exec.ModeAlign)
	agg, err := p.Aggregate(align, []expr.Expr{col(0)}, []string{"k"}, true, []exec.AggSpec{{Name: "c", Func: exec.AggCountStar}})
	if err != nil {
		t.Fatal(err)
	}
	union := p.SetOp(p.Distinct(p.Project(agg, []string{"k"}, []expr.Expr{col(0)})), p.Absorb(p.Project(left, []string{"k"}, []expr.Expr{col(0)})), exec.UnionOp)
	root := p.Limit(p.Sort(union, exec.SortKey{Expr: col(0)}), 10, 2)

	var nodes []Node
	var walk func(Node)
	walk = func(n Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	if len(nodes) < 15 {
		t.Fatalf("the plan has %d nodes; it is meant to have one of every kind", len(nodes))
	}
	var sink float64
	ask := func() {
		for _, n := range nodes {
			sink += n.Rows()
			if st := NodeStats(n); st != nil {
				sink += float64(st.Rows)
			}
		}
	}
	ask()
	if allocs := testing.AllocsPerRun(10, ask); allocs != 0 {
		t.Errorf("asking %d nodes for Rows and Stats allocates %.0f times, want 0", len(nodes), allocs)
	}
	// Derived statistics share their inputs' columns instead of copying them.
	if got, want := NodeStats(left).Col(1), r.TableStats.Col(1); got != want {
		t.Errorf("a projection's column statistics are a copy (%p), not the table's (%p)", got, want)
	}
	if sink == 0 {
		t.Errorf("estimates sum to zero")
	}
}

// TestPeekFeedsEstimatesOnly: a lifted placeholder's peeked literal moves
// the selectivity estimate exactly like the literal would, a caller's
// placeholder falls back to the constants, and zone-map pruning reads the
// bound value and never the peeked one.
func TestPeekFeedsEstimatesOnly(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	scan := analyzedScan(p, 200, "r")
	v := expr.CI(1, value.KindInt)
	peek := value.NewInt(150)
	literal := p.Filter(scan, expr.Ge(v, expr.Int(150))).Rows()
	lifted := p.Filter(scan, expr.Ge(v, expr.Param{Idx: 1, Peek: &peek})).Rows()
	generic := p.Filter(scan, expr.Ge(v, expr.Param{Idx: 1})).Rows()
	if lifted != literal {
		t.Errorf("v >= 150 estimates %v rows as a literal and %v as a lifted slot peeking 150", literal, lifted)
	}
	if want := 200 * RangeSelectivity; math.Abs(generic-want) > 1e-9 || generic == literal {
		t.Errorf("v >= $1 estimates %v rows, want the default %v", generic, want)
	}
	between := expr.Between{X: v, Lo: expr.Param{Idx: 1, Peek: &peek}, Hi: expr.Int(160)}
	if got, want := p.Filter(scan, between).Rows(), p.Filter(scan, expr.Between{X: v, Lo: expr.Int(150), Hi: expr.Int(160)}).Rows(); got != want {
		t.Errorf("BETWEEN with a peeked bound estimates %v rows, the literal %v", got, want)
	}

	pb := ExtractPruneBounds(expr.Ge(v, expr.Param{Idx: 1, Peek: &peek}), 2)
	if pb == nil {
		t.Fatal("v >= $1 yields no prune bounds")
	}
	if got, ok := pb.conds[0].value([]value.Value{value.NewInt(7)}); !ok || got.Int() != 7 {
		t.Errorf("the bound resolves to %v (ok=%v), want the bound value 7", got, ok)
	}
	if got, ok := pb.conds[0].value(nil); ok {
		t.Errorf("an unbound slot resolves to %v — the peeked value leaked into pruning", got)
	}
	if !strings.Contains(pb.String(), "150") {
		t.Errorf("EXPLAIN renders the bounds as %q, want the lifted literal shown", pb.String())
	}
}
