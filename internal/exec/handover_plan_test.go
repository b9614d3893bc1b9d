package exec_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"talign/internal/core"
	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// The planner-level side of the image hand-over: build sides that are
// projected scans reach their operators as views of the scanned image,
// through shared materializations, under budgets and in EXPLAIN ANALYZE.

// handOverRels returns two random duplicate-free relations r(k, v) and
// s(k, v) of at least 20 rows each.
func handOverRels() (r, s *relation.Relation) {
	rng := rand.New(rand.NewSource(28))
	cfg := randrel.DefaultConfig(schema.Attr{Name: "k", Type: value.KindInt}, schema.Attr{Name: "v", Type: value.KindInt})
	cfg.MaxTuples, cfg.Alphabet, cfg.TimeMax = 60, 5, 40
	gen := func() *relation.Relation {
		for {
			if rel := randrel.Generate(rng, cfg); rel.Len() >= 20 {
				return rel
			}
		}
	}
	return gen(), gen()
}

// imageKeys snapshots a relation's columnar image, row by row.
func imageKeys(rel *relation.Relation) []byte {
	img := rel.Columnar()
	var out []byte
	for row := 0; row < img.Len(); row++ {
		out = img.AppendRowKey(out, row)
	}
	return out
}

// runTemporalAgg runs a temporal aggregation by k over NORMALIZE three
// times on a fresh server (the second and third runs reuse the first's
// cached plan); each result must equal the oracle's
// B,Tϑ_COUNT(r), the plan must hold the shared materialization whose input
// is a projection, and r's image must stay as it was.
func runTemporalAgg(t *testing.T, sql string, shared int) {
	t.Helper()
	r, _ := handOverRels()
	want, err := oracle.Aggregation(r, []string{"k"}, []oracle.AggSpec{{Op: oracle.CountStar, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	before := imageKeys(r)
	e := server.New(server.Config{Flags: plan.DefaultFlags()})
	e.Catalog().Register("r", r)
	res := sqltest.MustRun(t, e, "EXPLAIN "+sql)
	lines := strings.Split(res.Plan, "\n")
	found := 0
	for i, l := range lines {
		if strings.Contains(l, "Materialize (shared)") && i+1 < len(lines) && strings.Contains(lines[i+1], "Project ") {
			found++
		}
	}
	if found < shared {
		t.Fatalf("want %d shared materializations of a projection, found %d in\n%s", shared, found, res.Plan)
	}
	for i := 0; i < 3; i++ {
		got := sqltest.MustRun(t, e, sql)
		if !slices.EqualFunc(sqltest.Keys(got.Rel), sqltest.Keys(want), bytes.Equal) {
			t.Fatalf("execution %d disagrees with the oracle\ngot:\n%s\nwant:\n%s", i, got.Rel, want)
		}
	}
	if !bytes.Equal(imageKeys(r), before) {
		t.Fatal("r's image changed")
	}
}

// TestHandOverWithBody: a WITH body that projects a scan, read twice — as
// NORMALIZE's left input and as its group side. The HAVING clause (always
// true: the rows carry no ω) aggregates MIN and MAX, which the temporal
// aggregation sweep does not take, so the plan keeps N_B and both reads.
func TestHandOverWithBody(t *testing.T) {
	runTemporalAgg(t,
		"WITH w AS (SELECT v, k FROM r) SELECT k, COUNT(*) n, Ts, Te FROM (w a1 NORMALIZE w a2 USING (k)) x GROUP BY k, Ts, Te HAVING MAX(v) >= MIN(v)", 2)
}

// alignOverProjections is r ALIGN s ON r.k = s.k with both inputs projected
// scans, as the SQL layer builds them.
func alignOverProjections(r, s *relation.Relation) plan.Node {
	a := core.New(plan.DefaultFlags())
	p := a.Planner()
	proj := func(rel *relation.Relation, name string) plan.Node {
		k, v := expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"}, expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}
		return p.Project(p.Scan(rel, name), []string{"k", "v"}, []expr.Expr{k, v})
	}
	theta := expr.Eq(expr.CI(0, value.KindInt), expr.CI(2, value.KindInt))
	return a.AlignPlan(proj(r, "r"), proj(s, "s"), theta)
}

// TestHandOverBudgetParity: the group side's image is charged as the
// batches it stands for. Every guarded edge of r ALIGN s — r's rows, s's,
// the output — counts once: a row budget one short of s alone trips, one
// short of the sum trips, the sum passes.
func TestHandOverBudgetParity(t *testing.T) {
	r, s := handOverRels()
	out, err := plan.Run(alignOverProjections(r, s))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(r.Len() + s.Len() + out.Len())
	for _, c := range []struct {
		rows int64
		trip bool
	}{{int64(s.Len()) - 1, true}, {total - 1, true}, {total, false}} {
		ctx := plan.NewExecCtx()
		ctx.Arm(context.Background(), exec.NewBudget(c.rows, 0))
		_, err := plan.RunCtx(alignOverProjections(r, s), ctx)
		var be *exec.BudgetError
		if tripped := errors.As(err, &be); tripped != c.trip || (!tripped && err != nil) {
			t.Errorf("row budget %d (|r| %d, |s| %d, output %d): %v, want tripped = %v", c.rows, r.Len(), s.Len(), out.Len(), err, c.trip)
		}
	}
}

// TestHandOverExplainAnalyze: in an analyzed build every node is guarded,
// the group side's projection and scan included; handing the image over
// counts its rows at both.
func TestHandOverExplainAnalyze(t *testing.T) {
	r, s := handOverRels()
	text, _, err := plan.ExplainAnalyze(alignOverProjections(r, s), plan.NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text, "\n")
	want := fmt.Sprintf("(actual rows=%d)", s.Len())
	for i, l := range lines {
		if strings.Contains(l, "SeqScan s") {
			if !strings.HasSuffix(l, want) || !strings.HasSuffix(lines[i-1], want) {
				t.Fatalf("the projected scan of s does not read %s:\n%s", want, text)
			}
			return
		}
	}
	t.Fatalf("no scan of s in\n%s", text)
}
