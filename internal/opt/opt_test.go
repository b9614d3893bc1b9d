package opt

import (
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/stats"
	"talign/internal/value"
)

func testRel(n, mod int) *relation.Relation {
	b := relation.NewBuilder("k int", "v int")
	for i := 0; i < n; i++ {
		b.Row(int64(i), int64(i)+1, i%mod, i)
	}
	return b.MustBuild()
}

func scanWithStats(p *plan.Planner, rel *relation.Relation, name string) *plan.ScanNode {
	s := p.Scan(rel, name)
	s.TableStats = stats.Analyze(rel)
	return s
}

// runBoth executes the original and optimized plan and fails on any
// difference.
func runBoth(t *testing.T, p *plan.Planner, n plan.Node) plan.Node {
	t.Helper()
	o := Optimize(n, p)
	want, err := plan.Run(n)
	if err != nil {
		t.Fatalf("original plan: %v", err)
	}
	got, err := plan.Run(o)
	if err != nil {
		t.Fatalf("optimized plan: %v", err)
	}
	if !relation.SetEqual(got, want) {
		ga, gw := relation.Diff(got, want)
		t.Fatalf("optimized result diverged\nonly optimized: %v\nonly original: %v\noptimized plan:\n%s", ga, gw, plan.Explain(o))
	}
	return o
}

func TestFoldConstants(t *testing.T) {
	one := expr.Int(1)
	cases := []struct {
		in   expr.Expr
		want string
	}{
		{expr.Eq(one, one), "true"},
		{expr.And(expr.Bool(true), expr.Gt(expr.CI(0, value.KindInt), one)), "(#0 > 1)"},
		{expr.And(expr.Bool(false), expr.Gt(expr.CI(0, value.KindInt), one)), "false"},
		{expr.Or(expr.Bool(true), expr.Gt(expr.CI(0, value.KindInt), one)), "true"},
		{expr.Add(expr.Int(2), expr.Int(3)), "5"},
		{expr.Gt(expr.CI(0, value.KindInt), expr.Add(expr.Int(2), expr.Int(3))), "(#0 > 5)"},
	}
	for _, c := range cases {
		if got := fold(c.in).String(); got != c.want {
			t.Errorf("fold(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	// Parameters are not constants.
	p := expr.Cmp{Op: expr.EQ, L: expr.Param{Idx: 1}, R: expr.Int(3)}
	if _, ok := fold(p).(expr.Const); ok {
		t.Error("fold must not evaluate $N parameters")
	}
}

func TestFilterTrueAndFalse(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	scan := p.Scan(testRel(10, 5), "r")

	if got := Optimize(p.Filter(scan, expr.Eq(expr.Int(1), expr.Int(1))), p); got != scan {
		t.Errorf("WHERE 1=1 should collapse to the input, got %s", got.Label())
	}

	empty := Optimize(p.Filter(scan, expr.Eq(expr.Int(1), expr.Int(2))), p)
	out, err := plan.Run(empty)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("WHERE 1=2 must return nothing, got %d rows", out.Len())
	}
}

func TestPushdownBelowJoin(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	l := scanWithStats(p, testRel(100, 10), "l")
	r := scanWithStats(p, testRel(100, 10), "r")
	join := p.Join(l, r, expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt)), exec.InnerJoin, false)
	// One conjunct per side plus one cross-side residual.
	pred := expr.And(
		expr.Eq(expr.CI(0, value.KindInt), expr.Int(3)),               // left only
		expr.Ge(expr.CI(3, value.KindInt), expr.Int(10)),              // right only
		expr.Ne(expr.CI(1, value.KindInt), expr.CI(3, value.KindInt)), // both sides
	)
	o := runBoth(t, p, p.Filter(join, pred))
	text := plan.Explain(o)
	// The join node must now sit above filtered scans.
	ji := strings.Index(text, "join ON")
	if ji < 0 {
		t.Fatalf("no join in optimized plan:\n%s", text)
	}
	below := text[ji:]
	if !strings.Contains(below, "Filter (#0 = 3)") || !strings.Contains(below, "Filter (#1 >= 10)") {
		t.Errorf("single-side conjuncts not pushed below the join:\n%s", text)
	}
	// An inner join takes the cross-side residual into its condition.
	if !strings.HasPrefix(text, "hash inner join ON ((#0 = #2) AND (#1 <> #3))") {
		t.Errorf("cross-side residual should join the join's condition:\n%s", text)
	}
}

func TestNoPushIntoOuterNullSide(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	l := p.Scan(testRel(20, 4), "l")
	r := p.Scan(testRel(20, 4), "r")
	join := p.Join(l, r, expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt)), exec.LeftOuterJoin, false)
	// References the null-extended right side: must stay above the join.
	pred := expr.IsNull{X: expr.ColIdx{Idx: 2, Typ: value.KindInt}}
	o := runBoth(t, p, p.Filter(join, pred))
	if !strings.HasPrefix(plan.Explain(o), "Filter") {
		t.Errorf("filter on the null-extended side must not move:\n%s", plan.Explain(o))
	}
}

func TestProjectCollapse(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	scan := p.Scan(testRel(10, 5), "r")
	inner := p.Project(scan, []string{"a", "b"}, []expr.Expr{
		expr.CI(1, value.KindInt), expr.CI(0, value.KindInt)})
	outer := p.Project(inner, []string{"c"}, []expr.Expr{
		expr.Add(expr.CI(0, value.KindInt), expr.Int(1))})
	o := runBoth(t, p, outer)
	if strings.Count(plan.Explain(o), "Project") != 1 {
		t.Errorf("stacked projections should collapse into one:\n%s", plan.Explain(o))
	}
}

func TestIdentityProjectElided(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	scan := p.Scan(testRel(10, 5), "r")
	id := p.Project(scan, []string{"k", "v"}, []expr.Expr{
		expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"},
		expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}})
	if got := Optimize(id, p); got != scan {
		t.Errorf("identity projection should be elided, got %s", got.Label())
	}
	// A renaming projection is NOT identity.
	ren := p.Project(scan, []string{"x", "v"}, []expr.Expr{
		expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"},
		expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}})
	if got := Optimize(ren, p); got == scan {
		t.Error("renaming projection must be kept")
	}
}

// TestCommaJoinHashes: a WHERE conjunct that reads both inputs of an
// inner join becomes part of the join's condition, so
//
//	SELECT r.b, s.b, u.b FROM r, s, u WHERE r.a = s.a AND s.b = u.b AND u.a = 1
//
// runs as two hash joins on its equi keys instead of a filter over each
// nested-loop cross product.
func TestCommaJoinHashes(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	r, s, u := p.Scan(testRel(30, 4), "r"), p.Scan(testRel(30, 5), "s"), p.Scan(testRel(30, 3), "u")
	col := func(i int) expr.Expr { return expr.CI(i, value.KindInt) }
	// Columns of r × s × u: r.k 0, r.v 1, s.k 2, s.v 3, u.k 4, u.v 5.
	from := p.Join(p.Join(r, s, nil, exec.InnerJoin, false), u, nil, exec.InnerJoin, false)
	where := expr.And(expr.Eq(col(0), col(2)), expr.Eq(col(3), col(5)), expr.Eq(col(4), expr.Int(1)))
	stmt := p.Project(p.Filter(from, where), []string{"rv", "sv", "uv"}, []expr.Expr{col(1), col(3), col(5)})
	text := plan.Explain(runBoth(t, p, stmt))
	if strings.Count(text, "hash inner join") != 2 || strings.Contains(text, "ON true") {
		t.Errorf("want two hash inner joins and no ON true:\n%s", text)
	}
}

func TestPushdownBelowFusedAdjust(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	l := scanWithStats(p, testRel(50, 5), "l")
	r := scanWithStats(p, testRel(50, 5), "r")
	theta := expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt))
	fused := p.FusedAlign(l, r, theta, exec.ModeAlign)
	o := runBoth(t, p, p.Filter(fused, expr.Eq(expr.CI(0, value.KindInt), expr.Int(2))))
	text := plan.Explain(o)
	if strings.HasPrefix(text, "Filter") {
		t.Errorf("value filter should push below FusedAdjust:\n%s", text)
	}
}

func TestSharedStaysShared(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	scan := p.Scan(testRel(10, 5), "r")
	shared := p.Shared(p.Filter(scan, expr.Eq(expr.Int(1), expr.Int(1))))
	join := p.Join(shared, shared, expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt)), exec.InnerJoin, false)
	o := Optimize(join, p)
	j, ok := o.(*plan.JoinNode)
	if !ok {
		t.Fatalf("expected a join, got %T", o)
	}
	if j.Left != j.Right {
		t.Error("rewritten shared subtree must stay a single shared instance")
	}
}
