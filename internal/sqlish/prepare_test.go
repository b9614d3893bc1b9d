package sqlish

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"talign/internal/expr"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/raceflag"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// testCatalog returns the paper's hotel example as a MapCatalog.
func testCatalog() MapCatalog {
	cat := MapCatalog{}
	cat.Register("r", relation.NewBuilder("n string").
		Row(0, 7, "Ann").
		Row(1, 5, "Joe").
		Row(7, 11, "Ann").
		MustBuild())
	cat.Register("p", relation.NewBuilder("a int", "mn int", "mx int").
		Row(0, 5, 50, 1, 2).
		Row(0, 5, 40, 3, 7).
		Row(0, 12, 30, 8, 12).
		Row(9, 12, 50, 1, 2).
		Row(9, 12, 40, 3, 7).
		MustBuild())
	return cat
}

func TestPipelineStages(t *testing.T) {
	cat := testCatalog()
	st, err := Parse("SELECT a FROM p WHERE a >= $1 ORDER BY a")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if st.ast.Explain {
		t.Fatalf("not an EXPLAIN statement")
	}
	prep, err := st.Prepare(cat, plan.DefaultFlags())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if prep.NumParams != 1 {
		t.Fatalf("NumParams = %d, want 1", prep.NumParams)
	}
	if got := prep.Schema().Len(); got != 1 {
		t.Fatalf("schema arity = %d, want 1", got)
	}
	rel, err := prep.Execute(value.NewInt(40))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rel.Len() != 4 {
		t.Fatalf("got %d rows, want 4 (a in {40, 40, 50, 50}):\n%s", rel.Len(), rel)
	}
	// The same plan executes again with a different binding.
	rel, err = prep.Execute(value.NewInt(50))
	if err != nil {
		t.Fatalf("Execute #2: %v", err)
	}
	if rel.Len() != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", rel.Len(), rel)
	}
}

func TestExecuteParamCount(t *testing.T) {
	prep, err := Prepare("SELECT a FROM p WHERE a BETWEEN $1 AND $2", testCatalog(), plan.DefaultFlags())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if prep.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", prep.NumParams)
	}
	if _, err := prep.Execute(value.NewInt(1)); err == nil {
		t.Fatalf("Execute with 1 of 2 params should fail")
	}
	if _, err := prep.Execute(); err == nil {
		t.Fatalf("Execute with 0 of 2 params should fail")
	}
	if _, err := prep.Execute(value.NewInt(30), value.NewInt(40)); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// NumParams is the highest index: one the text skips still takes a
	// value, which nothing reads.
	gap, err := Prepare("SELECT a FROM p WHERE a = $2", testCatalog(), plan.DefaultFlags())
	if err != nil {
		t.Fatalf("Prepare with an unused $1: %v", err)
	}
	if gap.NumParams != 2 {
		t.Fatalf("NumParams = %d for a statement whose only placeholder is $2, want 2", gap.NumParams)
	}
	if _, err := gap.Execute(value.NewInt(40)); err == nil {
		t.Fatalf("Execute with 1 of 2 params should fail")
	}
	for _, unused := range []value.Value{value.Null, value.NewString("ignored")} {
		rel, err := gap.Execute(unused, value.NewInt(40))
		if err != nil || rel.Len() != 2 {
			t.Fatalf("Execute(%v, 40) = %v, %v; want the two a = 40 rows", unused, rel, err)
		}
	}
}

// streamCount drains (or, with stopAfter > 0, abandons after that many
// batches) one streamed execution and reports its rows and whether it
// re-opened a kept pipeline.
func streamCount(t *testing.T, prep *Prepared, ctx context.Context, stopAfter int, params ...value.Value) (rows int, reused bool, err error) {
	t.Helper()
	cur, err := prep.Stream(ctx, params...)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	defer cur.Close()
	for batches := 0; stopAfter == 0 || batches < stopAfter; batches++ {
		b, err := cur.NextBatch()
		if err != nil {
			return rows, cur.Reused(), err
		}
		if b == nil {
			break
		}
		rows += b.NumRows()
	}
	return rows, cur.Reused(), nil
}

// TestStreamReusesPipeline is the Prepared's side of build once, open
// many: a clean end — exhaustion or an early Close — hands the pipeline
// back and the next execution re-opens it with its own parameters; an
// execution that ended in an error does not; sorts, set operations and
// joins re-open like everything else; a plan with a part that cannot
// be re-opened (a WITH memo) builds every time; executions that overlap get
// a pipeline each.
func TestStreamReusesPipeline(t *testing.T) {
	cat, flags, ctx := testCatalog(), plan.DefaultFlags(), context.Background()
	flags.BatchSize = 2
	prep, err := Prepare("SELECT a, mn FROM p WHERE a >= $1", cat, flags)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		arg        int64
		stopAfter  int
		cancelled  bool
		rows       int
		wantReused bool
	}{
		{40, 0, false, 4, false}, // builds
		{50, 0, false, 2, true},
		{30, 1, false, 2, true},  // abandoned after one batch of two
		{30, 0, false, 5, true},  // ... and nothing of it shows
		{40, 0, true, 0, true},   // ends in context.Canceled
		{40, 0, false, 4, false}, // so this one builds again
		{50, 0, false, 2, true},
	} {
		cctx, cancel := context.WithCancel(ctx)
		if c.cancelled {
			cancel()
		}
		rows, reused, err := streamCount(t, prep, cctx, c.stopAfter, value.NewInt(c.arg))
		cancel()
		if c.cancelled != (err != nil) {
			t.Fatalf("execution %d: err = %v, cancelled = %v", i, err, c.cancelled)
		}
		if rows != c.rows || reused != c.wantReused {
			t.Fatalf("execution %d (a >= %d): %d rows, reused = %v; want %d rows, reused = %v", i, c.arg, rows, reused, c.rows, c.wantReused)
		}
	}
	for _, c := range []struct {
		sql      string
		rows     [4]int // under $1 = 30, 40, 50, 40
		reusable bool
	}{
		{"SELECT a, mn FROM p WHERE a >= $1 ORDER BY a DESC, mn", [4]int{5, 4, 2, 4}, true},
		{"SELECT DISTINCT a FROM p WHERE a >= $1", [4]int{5, 4, 2, 4}, true},
		{"SELECT a FROM p EXCEPT SELECT a FROM p WHERE a >= $1", [4]int{0, 1, 3, 1}, true},
		{"SELECT x.a, y.mn FROM p x JOIN p y ON x.a = y.a AND x.Ts = y.Ts WHERE x.a >= $1", [4]int{5, 4, 2, 4}, true},
		{"WITH q AS (SELECT a FROM p WHERE a >= $1) SELECT a FROM q", [4]int{5, 4, 2, 4}, false}, // SharedNode memo
	} {
		prep, err := Prepare(c.sql, cat, flags)
		if err != nil {
			t.Fatal(err)
		}
		for i, arg := range []int64{30, 40, 50, 40} {
			rows, reused, err := streamCount(t, prep, ctx, 0, value.NewInt(arg))
			if err != nil || rows != c.rows[i] || reused != (c.reusable && i > 0) {
				t.Fatalf("%s, execution %d ($1 = %d): %d rows, reused = %v, err = %v; want %d rows, reused = %v",
					c.sql, i, arg, rows, reused, err, c.rows[i], c.reusable && i > 0)
			}
		}
	}
	// Two cursors open at once cannot share: the second builds. Both go
	// back, and the next two executions find them.
	first, _ := prep.Stream(ctx, value.NewInt(40))
	second, _ := prep.Stream(ctx, value.NewInt(50))
	if !first.Reused() || second.Reused() {
		t.Fatalf("overlapping executions: reused = %v, %v; want true, false", first.Reused(), second.Reused())
	}
	first.Close()
	second.Close()
	first, _ = prep.Stream(ctx, value.NewInt(40))
	second, _ = prep.Stream(ctx, value.NewInt(50))
	if kept := runtime.GOMAXPROCS(0) >= 2; !first.Reused() || second.Reused() != kept {
		t.Fatalf("after both went back: reused = %v, %v; want true, %v (one idle pipeline per processor)", first.Reused(), second.Reused(), kept)
	}
	first.Close()
	second.Close()
}

func TestExecuteExplainRefused(t *testing.T) {
	prep, err := Prepare("EXPLAIN SELECT * FROM r", testCatalog(), plan.DefaultFlags())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if !prep.IsExplain() {
		t.Fatalf("IsExplain = false")
	}
	if _, err := prep.Execute(); err == nil {
		t.Fatalf("Execute of EXPLAIN should fail")
	}
	if !strings.Contains(prep.Explain(), "SeqScan r") {
		t.Fatalf("Explain missing scan node:\n%s", prep.Explain())
	}
}

// TestPlaceholderVsLiteral checks extensively that executing a prepared
// statement with bound parameters matches re-planning the statement with
// the values spliced in as literals — across filters, BETWEEN, ALIGN θ
// conditions, aggregation HAVING and WITH bodies.
func TestPlaceholderVsLiteral(t *testing.T) {
	cat := testCatalog()
	flags := plan.DefaultFlags()
	cases := []struct {
		sql    string
		params []value.Value
		lits   []string
	}{
		{
			"SELECT n FROM r WHERE n = $1",
			[]value.Value{value.NewString("Ann")},
			[]string{"'Ann'"},
		},
		{
			"SELECT a, mn, mx FROM p WHERE a >= $1 AND mx <= $2",
			[]value.Value{value.NewInt(40), value.NewInt(7)},
			[]string{"40", "7"},
		},
		{
			"SELECT a FROM p WHERE a BETWEEN $1 AND $2",
			[]value.Value{value.NewInt(35), value.NewInt(45)},
			[]string{"35", "45"},
		},
		{
			`WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r)
			 SELECT n, Us, Ue, x.Ts, x.Te FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx AND a >= $1) x`,
			[]value.Value{value.NewInt(40)},
			[]string{"40"},
		},
		{
			"SELECT a, COUNT(*) c FROM p GROUP BY a HAVING COUNT(*) >= $1",
			[]value.Value{value.NewInt(2)},
			[]string{"2"},
		},
		{
			"SELECT n, a FROM r JOIN p ON mn <= $1 WHERE a > $2",
			[]value.Value{value.NewInt(2), value.NewInt(35)},
			[]string{"2", "35"},
		},
	}
	for _, tc := range cases {
		prep, err := Prepare(tc.sql, cat, flags)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.sql, err)
		}
		got, err := prep.Execute(tc.params...)
		if err != nil {
			t.Fatalf("Execute(%s): %v", tc.sql, err)
		}
		lit := tc.sql
		for i, l := range tc.lits {
			lit = strings.ReplaceAll(lit, fmt.Sprintf("$%d", i+1), l)
		}
		wantPrep, err := Prepare(lit, cat, flags)
		if err != nil {
			t.Fatalf("Prepare(literal %s): %v", lit, err)
		}
		want, err := wantPrep.Execute()
		if err != nil {
			t.Fatalf("Execute(literal %s): %v", lit, err)
		}
		if !relation.SetEqual(got, want) {
			onlyG, onlyW := relation.Diff(got, want)
			t.Fatalf("%s with %v != literal form\nonly prepared: %v\nonly literal: %v",
				tc.sql, tc.params, onlyG, onlyW)
		}
	}
}

// TestPlaceholderVsOracle cross-checks parameter binding against the
// independent snapshot-semantics oracle: a parameterized selection must
// produce exactly oracle.Selection with the same constant, on random
// relations and random bindings.
func TestPlaceholderVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7411))
	flags := plan.DefaultFlags()
	attrs := []schema.Attr{{Name: "k", Type: value.KindString}, {Name: "v", Type: value.KindInt}}
	for trial := 0; trial < 30; trial++ {
		rel := randrel.Generate(rng, randrel.DefaultConfig(attrs...))
		cat := MapCatalog{}
		cat.Register("t", rel)
		prep, err := Prepare("SELECT k, v FROM t WHERE v >= $1", cat, flags)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		for _, bound := range []int64{-1, 0, 1, 2} {
			got, err := prep.Execute(value.NewInt(bound))
			if err != nil {
				t.Fatalf("Execute(%d): %v", bound, err)
			}
			pred, err := expr.Ge(expr.C("v"), expr.Int(bound)).Bind(rel.Schema)
			if err != nil {
				t.Fatalf("bind predicate: %v", err)
			}
			want, err := oracle.Selection(rel, pred)
			if err != nil {
				t.Fatalf("oracle.Selection: %v", err)
			}
			if !relation.SetEqual(got, want) {
				onlyG, onlyW := relation.Diff(got, want)
				t.Fatalf("trial %d bound %d: engine != oracle\nonly engine: %v\nonly oracle: %v\ninput:\n%s",
					trial, bound, onlyG, onlyW, rel)
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	_, a, err := ParseNormalized("SELECT   A, mn FROM P  WHERE a >= $1 -- trailing comment\n ORDER BY a")
	if err != nil {
		t.Fatalf("ParseNormalized: %v", err)
	}
	_, b, err := ParseNormalized("select a,mn from p where a>=$1 order by a")
	if err != nil {
		t.Fatalf("ParseNormalized: %v", err)
	}
	if a != b {
		t.Fatalf("normal forms differ:\n%q\n%q", a, b)
	}
	// Normalized text must re-parse to an equivalent statement.
	if _, err := Prepare(a, testCatalog(), plan.DefaultFlags()); err != nil {
		t.Fatalf("normalized text does not prepare: %v", err)
	}
	// String case is semantic and must be preserved.
	_, c, _ := ParseNormalized("SELECT * FROM r WHERE n = 'Ann'")
	_, d, _ := ParseNormalized("SELECT * FROM r WHERE n = 'ann'")
	if c == d {
		t.Fatalf("string literal case was lost: %q", c)
	}
}

// TestWithClauseIsPerExecution ensures WITH bodies re-materialize per
// execution (they are SharedNode subtrees, not prepare-time snapshots), so
// parameters inside WITH work.
func TestWithParamInWith(t *testing.T) {
	prep, err := Prepare(
		"WITH big AS (SELECT a FROM p WHERE a >= $1) SELECT a FROM big",
		testCatalog(), plan.DefaultFlags())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	r1, err := prep.Execute(value.NewInt(50))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	r2, err := prep.Execute(value.NewInt(30))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if r1.Len() != 2 || r2.Len() != 5 {
		t.Fatalf("param in WITH ignored: got %d and %d rows, want 2 and 5", r1.Len(), r2.Len())
	}
}

// TestStreamReuseAllocPin: a streamed execution that re-opens a kept
// pipeline allocates its Cursor and nothing else — no argument slice, no
// ExecCtx, no operator — whatever the statement (here ALIGN over two
// filtered inputs, with a lifted literal beside the caller's $1).
func TestStreamReuseAllocPin(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocation")
	}
	st, err := ParseLifted("SELECT a, mn, Ts, Te FROM ((SELECT a, mn FROM p WHERE a >= $1) x ALIGN (SELECT a, mx FROM p WHERE mx <= 7) y ON x.a = y.a) z")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := st.Prepare(testCatalog(), plan.DefaultFlags())
	if err != nil {
		t.Fatal(err)
	}
	ctx, params := context.Background(), []value.Value{value.NewInt(40)}
	run := func() {
		cur, err := prep.StreamFor(ctx, nil, st, params)
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := cur.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
		cur.Close()
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs > 1 {
		t.Errorf("a re-opened execution costs %.0f mallocs, want 1 (the Cursor)", allocs)
	}
}
