package plan

import (
	"errors"
	"math"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/tuple"
	"talign/internal/value"
)

func sampleRel(n int) *relation.Relation {
	b := relation.NewBuilder("k int", "v int")
	for i := 0; i < n; i++ {
		b.Row(int64(i), int64(i)+1, i%10, i)
	}
	return b.MustBuild()
}

func equiCond(split int) expr.Expr {
	return expr.Eq(expr.CI(0, value.KindInt), expr.CI(split, value.KindInt))
}

// TestPaperCostEstimates checks the Sec. 6.2/6.3 formulas on the fused
// node: alignment estimates 3× its group-join rows, normalization 2×, and
// the sweep adds 2·cpu_op per output row to the chosen group strategy.
func TestPaperCostEstimates(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	scan := p.Scan(sampleRel(100), "r")
	// No statistics: the group join on k = k keeps max(100·100·2·EqSelectivity, 100) = 100 rows.
	align := p.FusedAlign(scan, scan, equiCond(2), exec.ModeAlign)
	if got := align.Rows(); got != 300 {
		t.Fatalf("align rows: got %v want 300 (= 3·group join)", got)
	}
	keys := []expr.EquiPair{{Left: expr.CI(0, value.KindInt), Right: expr.CI(0, value.KindInt)}}
	// Normalization groups with two split points per s row: max(100·200·2·EqSelectivity, 100) = 200.
	norm := p.FusedNormalize(scan, scan, keys)
	if got := norm.Rows(); got != 400 {
		t.Fatalf("normalize rows: got %v want 400 (= 2·group join)", got)
	}
	join := p.Join(scan, scan, equiCond(2), exec.LeftOuterJoin, false)
	if got, want := align.Cost(), join.Cost()+2*CPUOperatorCost*300; got != want {
		t.Fatalf("align cost: got %v want %v (group join + sweep)", got, want)
	}
}

// TestJoinMethodSelection mirrors the Sec. 7.2 experiment mechanics: with
// everything enabled an equi join picks hash or merge; disabling paths
// steers the choice, and with only nestloop left it falls back to it.
func TestJoinMethodSelection(t *testing.T) {
	rel := sampleRel(1000)
	mk := func(flags Flags) JoinMethod {
		p := NewPlanner(flags)
		j := p.Join(p.Scan(rel, "r"), p.Scan(rel, "s"), equiCond(2), exec.InnerJoin, false)
		return j.Method
	}
	all := DefaultFlags()
	if m := mk(all); m == MethodNestLoop {
		t.Fatalf("equi join with all paths enabled must not pick nestloop, got %s", m)
	}
	noMerge := all
	noMerge.EnableMergeJoin = false
	if m := mk(noMerge); m != MethodHash {
		t.Fatalf("with merge disabled want hash, got %s", m)
	}
	nlOnly := Flags{EnableNestLoop: true}
	if m := mk(nlOnly); m != MethodNestLoop {
		t.Fatalf("with only nestloop want nestloop, got %s", m)
	}
	// Non-equi conditions can only nest-loop.
	p := NewPlanner(all)
	j := p.Join(p.Scan(rel, "r"), p.Scan(rel, "s"),
		expr.Lt(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt)), exec.InnerJoin, false)
	if j.Method != MethodNestLoop {
		t.Fatalf("non-equi join must nestloop, got %s", j.Method)
	}
}

// TestMatchTAddsTimestampKey: with MatchT the adjusted timestamp becomes an
// equi key, so even θ=true joins can hash (the Table 2 joins after
// alignment).
func TestMatchTAddsTimestampKey(t *testing.T) {
	rel := sampleRel(1000)
	p := NewPlanner(DefaultFlags())
	j := p.Join(p.Scan(rel, "r"), p.Scan(rel, "s"), nil, exec.InnerJoin, true)
	if j.Method == MethodNestLoop {
		t.Fatalf("T-equality join should hash or merge, got %s", j.Method)
	}
}

// TestDisabledPathStillUsable: disabling every path must still produce a
// plan (disable costs, not hard removal).
func TestDisabledPathStillUsable(t *testing.T) {
	rel := sampleRel(10)
	p := NewPlanner(Flags{})
	j := p.Join(p.Scan(rel, "r"), p.Scan(rel, "s"), equiCond(2), exec.InnerJoin, false)
	out, err := Run(j)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("join produced nothing")
	}
}

// TestJoinMethodsProduceSameResult runs the same plan under each forced
// method and compares.
func TestJoinMethodsProduceSameResult(t *testing.T) {
	rel := sampleRel(50)
	var results []*relation.Relation
	for _, flags := range []Flags{
		{EnableNestLoop: true},
		{EnableHashJoin: true, EnableNestLoop: true},
		{EnableMergeJoin: true, EnableSort: true, EnableNestLoop: true},
	} {
		p := NewPlanner(flags)
		j := p.Join(p.Scan(rel, "r"), p.Scan(rel, "s"), equiCond(2), exec.LeftOuterJoin, false)
		out, err := Run(j)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		results = append(results, out)
	}
	for i := 1; i < len(results); i++ {
		if !relation.SetEqual(results[0], results[i]) {
			t.Fatalf("method %d produced different result", i)
		}
	}
}

// TestNaNPayloadsJoin runs one pair of NaNs with different payload bits —
// math.NaN() against what Inf-Inf yields on amd64 — through the hash,
// merge and nested-loop joins and through a DOP=2 exchange. Equal, Compare and AppendKey treat every NaN as one value,
// so each configuration must pair the two rows.
func TestNaNPayloadsJoin(t *testing.T) {
	mk := func(f float64) *relation.Relation {
		rel := relation.New(relation.NewBuilder("k float").MustBuild().Schema)
		rel.MustAppend(tuple.New(interval.New(0, 5), value.NewFloat(f)))
		return rel
	}
	l, r := mk(math.NaN()), mk(math.Float64frombits(0xFFF8000000000000))
	cond := expr.Eq(expr.CI(0, value.KindFloat), expr.CI(1, value.KindFloat))
	method := func(nl, hash, merge bool) Flags {
		f := DefaultFlags()
		f.EnableNestLoop, f.EnableHashJoin, f.EnableMergeJoin = nl, hash, merge
		return f
	}
	exchange := DefaultFlags()
	exchange.DOP, exchange.ForceParallel = 2, true
	for name, flags := range map[string]Flags{
		"hash": method(false, true, false), "merge": method(false, false, true), "nestloop": method(true, false, false),
		"exchange": exchange,
	} {
		p := NewPlanner(flags)
		// The exchange seed is random per build: repeat so that a routing
		// that only works by luck shows up.
		for i := 0; i < 20; i++ {
			out, err := Run(p.ParJoin(p.Scan(l, "l"), p.Scan(r, "r"), cond, exec.InnerJoin, false))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.Len() != 1 {
				t.Fatalf("%s: NaN = NaN produced %d rows, want 1", name, out.Len())
			}
		}
	}
}

// TestBudgetStopsColumnarBlowUp: an aggregate over a hash join is one
// columnar pipeline whose root emits a single row, and the aggregate
// drains the join inside its Open. The row budget must still see the
// million join rows crossing that edge and abort the execution — the
// resilience boundary is per operator input, not per plan.
func TestBudgetStopsColumnarBlowUp(t *testing.T) {
	b := relation.NewBuilder("k int", "v int")
	for i := 0; i < 1000; i++ {
		b.Row(0, 10, 7, i) // one key: the equi join is a cross product
	}
	rel := b.MustBuild()
	flags := DefaultFlags()
	flags.EnableNestLoop, flags.EnableMergeJoin = false, false
	p := NewPlanner(flags)
	join := p.Join(p.Scan(rel, "l"), p.Scan(rel, "r"), equiCond(2), exec.InnerJoin, false)
	agg, err := p.Aggregate(join, nil, nil, false, []exec.AggSpec{{Func: exec.AggCountStar, Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, bud := NewExecCtx(), exec.NewBudget(50_000, 0)
	ctx.Arm(nil, bud)
	cit, err := BuildRoot(agg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cit.Close()
	err = cit.Open()
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("Open = %v, want the row budget to abort the build", err)
	}
	if rows := bud.Rows(); rows > 60_000 {
		t.Fatalf("the budget let %d rows through before tripping at 50 000", rows)
	}
}

func TestExplainRendering(t *testing.T) {
	rel := sampleRel(10)
	p := NewPlanner(DefaultFlags())
	node := p.Absorb(p.Distinct(p.Filter(p.Scan(rel, "r"),
		expr.Gt(expr.CI(1, value.KindInt), expr.Int(3)))))
	text := Explain(node)
	for _, part := range []string{"Absorb", "Distinct", "Filter", "SeqScan r", "rows=", "cost="} {
		if !strings.Contains(text, part) {
			t.Fatalf("explain missing %q:\n%s", part, text)
		}
	}
}

// TestScanCostGrowsWithSize sanity-checks the scan model.
func TestScanCostGrowsWithSize(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	small := p.Scan(sampleRel(10), "s")
	big := p.Scan(sampleRel(1000), "b")
	if small.Cost() >= big.Cost() {
		t.Fatal("scan cost must grow with relation size")
	}
	if small.Rows() != 10 || big.Rows() != 1000 {
		t.Fatal("scan row estimates must be exact")
	}
}

// TestAggregateAndSetOpNodes exercises the remaining node constructors.
func TestAggregateAndSetOpNodes(t *testing.T) {
	rel := sampleRel(20)
	p := NewPlanner(DefaultFlags())
	agg, err := p.Aggregate(p.Scan(rel, "r"),
		[]expr.Expr{expr.CI(0, value.KindInt)}, []string{"k"}, false,
		[]exec.AggSpec{{Func: exec.AggCountStar, Name: "c"}})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	out, err := Run(agg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() != 10 {
		t.Fatalf("want 10 groups, got %d", out.Len())
	}
	set := p.SetOp(p.Scan(rel, "a"), p.Scan(rel, "b"), exec.IntersectOp)
	out2, err := Run(set)
	if err != nil {
		t.Fatalf("setop run: %v", err)
	}
	if out2.Len() != rel.Len() {
		t.Fatalf("self-intersection must keep all tuples, got %d", out2.Len())
	}
	if set.Rows() <= 0 || agg.Rows() <= 0 {
		t.Fatal("row estimates must be positive")
	}
}
