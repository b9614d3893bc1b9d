package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/oracle"
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

// TestPaperRowEstimates checks the Sec. 6.2/6.3 formulas on the fused
// node: alignment estimates 3× its group-join rows, normalization 2×.
func TestPaperRowEstimates(t *testing.T) {
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
}

// estimated overrides a node's row estimate and leaves what it runs alone.
type estimated struct {
	Node
	rows float64
}

func (e estimated) Rows() float64 { return e.rows }

// TestJoinAccessFollowsTheta: a join hashes on θ's equi keys — T among
// them under MatchT — and runs a nested loop only when θ has none,
// whatever its inputs' estimated sizes; each access returns the oracle's
// rows. Both sides take their valid times from two disjoint periods, so
// under MatchT the plain join is the temporal one; without MatchT the
// oracle joins against a right side that covers every left row, whose
// pieces then carry the left row's valid time as the plain join's do.
func TestJoinAccessFollowsTheta(t *testing.T) {
	side := func(prefix string, cover bool) *relation.Relation {
		b := relation.NewBuilder(prefix+"k int", prefix+"v int")
		for i := 0; i < 12; i++ {
			ts := int64(i % 2 * 5)
			if cover {
				b.Row(0, 10, i%3, i)
			} else {
				b.Row(ts, ts+5, i%3, i)
			}
		}
		return b.MustBuild()
	}
	l, r, rCover := side("l", false), side("r", false), side("r", true)
	for _, tc := range []struct {
		name   string
		cond   expr.Expr
		matchT bool
		access string
	}{
		{"keyed", equiCond(2), false, "hash"},
		{"matchT", nil, true, "hash"},
		{"keyless", expr.Lt(expr.CI(1, value.KindInt), expr.CI(3, value.KindInt)), false, "nestloop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			right := rCover
			if tc.matchT {
				right = r
			}
			want, err := oracle.Join(l, right, tc.cond)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range []float64{1, 1e6} {
				t.Run(fmt.Sprintf("rows=%g", rows), func(t *testing.T) {
					p := NewPlanner(DefaultFlags())
					j := p.Join(estimated{p.Scan(l, "l"), rows}, estimated{p.Scan(right, "r"), rows}, tc.cond, exec.InnerJoin, tc.matchT)
					if !strings.HasPrefix(j.Label(), tc.access+" ") {
						t.Errorf("%q, want %s", j.Label(), tc.access)
					}
					got, err := Run(j)
					if err != nil {
						t.Fatal(err)
					}
					if !relation.SetEqual(got, want) {
						t.Errorf("%d rows differ from the oracle's %d", got.Len(), want.Len())
					}
				})
			}
		})
	}
}

// TestNaNPayloadsJoin runs one pair of NaNs with different payload bits —
// math.NaN() against what Inf-Inf yields on amd64 — through the hash join
// and the nested loop (a keyless θ that still compares the two). Equal,
// Compare and AppendKey treat every NaN as one value, so each access must
// pair the two rows.
func TestNaNPayloadsJoin(t *testing.T) {
	mk := func(f float64) *relation.Relation {
		rel := relation.New(relation.NewBuilder("k float").MustBuild().Schema)
		rel.MustAppend(tuple.New(interval.New(0, 5), value.NewFloat(f)))
		return rel
	}
	l, r := mk(math.NaN()), mk(math.Float64frombits(0xFFF8000000000000))
	p := NewPlanner(DefaultFlags())
	for _, tc := range []struct {
		name string
		cond expr.Expr
	}{
		{"hash", expr.Eq(expr.CI(0, value.KindFloat), expr.CI(1, value.KindFloat))},
		{"nestloop", expr.Neg(expr.Ne(expr.CI(0, value.KindFloat), expr.CI(1, value.KindFloat)))},
	} {
		out, err := Run(p.Join(p.Scan(l, "l"), p.Scan(r, "r"), tc.cond, exec.InnerJoin, false))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.Len() != 1 {
			t.Fatalf("%s: NaN = NaN produced %d rows, want 1", tc.name, out.Len())
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
	p := NewPlanner(DefaultFlags())
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
	for _, part := range []string{"Absorb", "Distinct", "Filter", "SeqScan r", "rows="} {
		if !strings.Contains(text, part) {
			t.Fatalf("explain missing %q:\n%s", part, text)
		}
	}
	if strings.Contains(text, "cost") {
		t.Fatalf("explain prints estimates, not costs:\n%s", text)
	}
}

// TestScanRowsExact: a scan holds its data, so its row estimate is exact.
func TestScanRowsExact(t *testing.T) {
	p := NewPlanner(DefaultFlags())
	small := p.Scan(sampleRel(10), "s")
	big := p.Scan(sampleRel(1000), "b")
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
