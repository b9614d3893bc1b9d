package sqlish

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"talign/internal/faultinject"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/value"
)

// TestLiftShapes pins what is lifted and what is not: the shape text
// (with the kind suffix after '|' for readability) and the lifted values.
func TestLiftShapes(t *testing.T) {
	cases := []struct {
		sql, shape string
		vals       []value.Value
	}{
		// Direct operands of comparisons and BETWEEN in WHERE / ON.
		{"SELECT a FROM p WHERE a = 40", "select a from p where a = $1|i", vals(40)},
		{"SELECT a FROM p WHERE a >= 40.5", "select a from p where a >= $1|f", vals(40.5)},
		{"SELECT n FROM r WHERE n = 'Ann'", "select n from r where n = $1|s", vals("Ann")},
		{"SELECT n FROM r WHERE n = 'O''Hara'", "select n from r where n = $1|s", vals("O'Hara")},
		{"SELECT a FROM p WHERE 40 < a", "select a from p where $1 < a|i", vals(40)},
		{"SELECT a FROM p WHERE a BETWEEN 1 AND 2.5", "select a from p where a between $1 and $2|if", vals(1, 2.5)},
		{"SELECT a FROM p WHERE a BETWEEN 1 AND 5 AND mn = 3", "select a from p where a between $1 and $2 and mn = $3|iii", vals(1, 5, 3)},
		{"SELECT a FROM p WHERE a = -5", "select a from p where a = $1|i", vals(-5)},
		{"SELECT a FROM p WHERE a > - 1.5", "select a from p where a > $1|f", vals(-1.5)},
		{"SELECT a FROM p WHERE -5 < a", "select a from p where $1 < a|i", vals(-5)},
		{"SELECT a FROM p WHERE a BETWEEN -2 AND -1", "select a from p where a between $1 and $2|ii", vals(-2, -1)},
		{"SELECT a FROM p WHERE NOT a = 5 OR (a < 7)", "select a from p where not a = $1 or ( a < $2 )|ii", vals(5, 7)},
		{"SELECT x.a FROM p x JOIN p y ON x.a = y.a AND y.mn <= 3 WHERE x.mx > 2",
			"select x . a from p x join p y on x . a = y . a and y . mn <= $1 where x . mx > $2|ii", vals(3, 2)},
		{"SELECT n FROM (r ALIGN r s ON s.n = 'Ann') x", "select n from ( r align r s on s . n = $1 ) x|s", vals("Ann")},
		{"SELECT a FROM (SELECT a FROM p WHERE a = 40) s WHERE a < 50",
			"select a from ( select a from p where a = $1 ) s where a < $2|ii", vals(40, 50)},
		{"WITH w AS (SELECT a FROM p WHERE a = 40) SELECT a FROM w WHERE a < 50",
			"with w as ( select a from p where a = $1 ) select a from w where a < $2|ii", vals(40, 50)},
		{"SELECT a FROM p WHERE a = 40 UNION SELECT a FROM p WHERE a = 50",
			"select a from p where a = $1 union select a from p where a = $2|ii", vals(40, 50)},
		{"SELECT a FROM p WHERE DUR(mn, mx) = 4", "select a from p where dur ( mn , mx ) = $1|i", vals(4)},
		// The caller's placeholders keep their numbers; hidden slots follow.
		{"SELECT a FROM p WHERE a = $2 AND mn = 1 AND mx < $1", "select a from p where a = $2 and mn = $3 and mx < $1|i", vals(1)},
		// Not lifted: select list, GROUP BY / HAVING, ORDER BY, LIMIT / OFFSET.
		{"SELECT a > 5 FROM p", "select a > 5 from p", nil},
		{"SELECT a > 5, COUNT(*) FROM p GROUP BY a > 5", "select a > 5 , count ( * ) from p group by a > 5", nil},
		{"SELECT a, COUNT(*) c FROM p WHERE mn = 1 GROUP BY a HAVING COUNT(*) > 1",
			"select a , count ( * ) c from p where mn = $1 group by a having count ( * ) > 1|i", vals(1)},
		{"SELECT a FROM p WHERE a = 40 ORDER BY 1 LIMIT 2 OFFSET 1", "select a from p where a = $1 order by 1 limit 2 offset 1|i", vals(40)},
		// Not lifted: arithmetic operands, function arguments, NULL / TRUE / FALSE.
		{"SELECT a FROM p WHERE a = mn + 5", "select a from p where a = mn + 5", nil},
		{"SELECT a FROM p WHERE a = 5 + mn", "select a from p where a = 5 + mn", nil},
		{"SELECT a FROM p WHERE a - 5 = mn", "select a from p where a - 5 = mn", nil},
		{"SELECT a FROM p WHERE a = -5 + mn", "select a from p where a = - 5 + mn", nil},
		{"SELECT a FROM p WHERE a = mn - 5", "select a from p where a = mn - 5", nil},
		{"SELECT a FROM p WHERE DUR(1, mx) > mn", "select a from p where dur ( 1 , mx ) > mn", nil},
		{"SELECT a FROM p WHERE a = NULL OR TRUE", "select a from p where a = null or true", nil},
		{"SELECT a FROM p WHERE a = (5)", "select a from p where a = ( 5 )", nil},
		// Not lifted: a literal compared with a literal stays foldable.
		{"SELECT a FROM p WHERE 1 = 1", "select a from p where 1 = 1", nil},
		{"SELECT a FROM p WHERE 1 = -1 AND a = 3", "select a from p where 1 = - 1 and a = $1|i", vals(3)},
		// Not lifted: a number the analyzer rejects keeps its text.
		{"SELECT a FROM p WHERE a = 99999999999999999999", "select a from p where a = 99999999999999999999", nil},
	}
	for _, c := range cases {
		st, err := ParseLifted(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := strings.Replace(st.ShapeKey(), "\x00", "|", 1); got != c.shape {
			t.Errorf("%s:\n shape %q\n want  %q", c.sql, got, c.shape)
		}
		if len(st.lifted) != len(c.vals) {
			t.Errorf("%s: lifted %v, want %v", c.sql, st.lifted, c.vals)
			continue
		}
		for i, v := range c.vals {
			if st.lifted[i].Kind() != v.Kind() || st.lifted[i].Compare(v) != 0 {
				t.Errorf("%s: lifted[%d] = %s, want %s", c.sql, i, st.lifted[i], v)
			}
		}
	}
}

// vals builds a value list from Go literals.
func vals(xs ...any) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		switch v := x.(type) {
		case int:
			out[i] = value.NewInt(int64(v))
		case float64:
			out[i] = value.NewFloat(v)
		case string:
			out[i] = value.NewString(v)
		}
	}
	return out
}

// TestLiftNeverForPlanStatements: EXPLAIN renders the text's own plan, and
// DDL has nothing to lift.
func TestLiftNeverForPlanStatements(t *testing.T) {
	for _, sql := range []string{
		"EXPLAIN SELECT a FROM p WHERE a = 40",
		"EXPLAIN ANALYZE SELECT a FROM p WHERE a = 40",
		"ANALYZE p",
		"CREATE TABLE c FROM CSV 'x = 5.csv'",
		"DROP TABLE c",
	} {
		st, err := ParseLifted(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		_, norm, _ := ParseNormalized(sql)
		if st.ShapeKey() != norm || len(st.lifted) != 0 {
			t.Errorf("%s: shape %q lifted %v, want the normalized text and nothing lifted", sql, st.ShapeKey(), st.lifted)
		}
	}
	if _, err := ParseLifted("EXPLAIN SELECT FROM"); err == nil {
		t.Errorf("a malformed EXPLAIN must fail at ParseLifted")
	}
}

// TestLiftedExecution: one plan per shape serves other statements of the
// shape with their own literals, NumParams and arity errors keep the
// caller's numbering, and kinds split shapes.
func TestLiftedExecution(t *testing.T) {
	cat := testCatalog()
	first, err := ParseLifted("SELECT a FROM p WHERE a >= $1 AND mn = 1")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := first.Prepare(cat, plan.DefaultFlags())
	if err != nil {
		t.Fatal(err)
	}
	if prep.NumParams != 1 {
		t.Fatalf("NumParams = %d, want the caller's 1", prep.NumParams)
	}
	rows := func(st *Statement, params ...value.Value) int {
		t.Helper()
		cur, err := prep.StreamFor(context.Background(), nil, st, params, nil)
		if err != nil {
			t.Fatalf("%s: %v", st.SQL, err)
		}
		defer cur.Close()
		n := 0
		for {
			b, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				return n
			}
			n += len(b)
		}
	}
	if got := rows(first, value.NewInt(40)); got != 2 {
		t.Errorf("mn = 1: %d rows, want 2", got)
	}
	other, err := ParseLifted("select a from p where a >= $1 and mn = 3")
	if err != nil {
		t.Fatal(err)
	}
	if other.ShapeKey() != first.ShapeKey() {
		t.Fatalf("shapes differ: %q vs %q", other.ShapeKey(), first.ShapeKey())
	}
	if got := rows(other, value.NewInt(40)); got != 2 {
		t.Errorf("mn = 3 on the mn = 1 plan: %d rows, want 2 (a = 40 twice)", got)
	}
	if got := rows(other, value.NewInt(50)); got != 0 {
		t.Errorf("mn = 3, a >= 50: %d rows, want 0", got)
	}
	// The plan's own Stream binds the literals it was prepared from.
	if rel, err := prep.Execute(value.NewInt(50)); err != nil || rel.Len() != 2 {
		t.Errorf("Execute with the plan's own literals: %v rows, err %v; want 2", rel, err)
	}
	if _, err := prep.StreamFor(context.Background(), nil, other, nil, nil); err == nil || !strings.Contains(err.Error(), "wants 1 parameter(s), got 0") {
		t.Errorf("arity error = %v, want the caller's numbering", err)
	}
	str, err := ParseLifted("SELECT a FROM p WHERE a >= $1 AND mn = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if str.ShapeKey() == first.ShapeKey() {
		t.Errorf("int and string literals share the shape %q", str.ShapeKey())
	}
}

// TestParseLiftedDefersParse: a statement costs one lex; the parse happens
// once, on the first Prepare, and its error reaches the caller there.
func TestParseLiftedDefersParse(t *testing.T) {
	count := func(site string, fn func()) uint64 {
		faultinject.Reset()
		faultinject.Arm(site, faultinject.Fault{Kind: faultinject.KindDelay, Repeat: true})
		defer faultinject.Reset()
		fn()
		return faultinject.Fired()
	}
	cat := testCatalog()
	var st *Statement
	if n := count("sqlish.lex", func() { st, _ = ParseLifted("SELECT a FROM p WHERE a = 40") }); n != 1 {
		t.Errorf("ParseLifted lexed %d times, want 1", n)
	}
	if n := count("sqlish.parse", func() { st, _ = ParseLifted("SELECT a FROM p WHERE a = 40") }); n != 0 {
		t.Errorf("ParseLifted parsed %d times, want 0", n)
	}
	n := count("sqlish.parse", func() {
		for i := 0; i < 3; i++ {
			if _, err := st.Prepare(cat, plan.DefaultFlags()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 1 {
		t.Errorf("three Prepares parsed %d times, want 1", n)
	}
	bad, err := ParseLifted("SELECT a FROM p WHERE a = ")
	if err != nil {
		t.Fatalf("ParseLifted defers the syntax check of a SELECT: %v", err)
	}
	_, err = bad.Prepare(cat, plan.DefaultFlags())
	var se *Error
	if !errors.As(err, &se) || se.Code != ErrParse || se.Line != 1 {
		t.Errorf("Prepare error = %v, want a parse error with a position", err)
	}
}

// liftCatalog is the small fixed catalog of the lifting differential.
func liftCatalog() MapCatalog {
	cat := testCatalog()
	cat.Register("q", relation.NewBuilder("k int", "f float", "s string").
		Row(0, 4, 1, 0.5, "a").
		Row(2, 6, 2, 1.5, "b").
		Row(3, 9, -3, -2.5, "c").
		Row(5, 8, 4, 2.5, "a").
		MustBuild())
	return cat
}

// canonRows renders a result as sorted row strings.
func canonRows(rel *relation.Relation) []string {
	out := make([]string, 0, rel.Len())
	for _, tp := range rel.Rows() {
		out = append(out, tp.String())
	}
	sort.Strings(out)
	return out
}

// checkLiftedEqualsLiteral runs sql un-lifted (Parse) and lifted
// (ParseLifted, bound with its own lifted values) and compares outcomes:
// both fail, or both return the same rows.
func checkLiftedEqualsLiteral(t *testing.T, cat Catalog, sql string) {
	t.Helper()
	// run plans and executes one side. Nothing is recovered: a panic on
	// either side fails the property (the analyzer rejects what the
	// executor cannot evaluate, e.g. DUR() with no arguments).
	skip := false
	run := func(st *Statement) (rel *relation.Relation, err error) {
		if _, ok := st.AnalyzeTarget(); ok {
			skip = true
			return nil, nil
		}
		p, err := st.Prepare(cat, plan.DefaultFlags())
		if err != nil {
			return nil, err
		}
		if p.IsExplain() || p.NumParams > 0 {
			skip = true
			return nil, nil
		}
		return p.Execute()
	}
	var want, got *relation.Relation
	ref, err := Parse(sql)
	if err == nil {
		want, err = run(ref)
	}
	if skip {
		return
	}
	st, lerr := ParseLifted(sql) // outside run: lifting itself never panics
	if lerr == nil {
		got, lerr = run(st)
	}
	if (err == nil) != (lerr == nil) {
		t.Fatalf("%q: un-lifted error %v, lifted error %v", sql, err, lerr)
	}
	if err != nil {
		return
	}
	g, w := canonRows(got), canonRows(want)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("%q (shape %q):\n lifted   %v\n literal %v", sql, st.ShapeKey(), g, w)
	}
}

// TestLiftArityError: a call with the wrong number of arguments — the
// fuzzer's kept input, which used to panic in expr.Func.Eval on both
// sides — is the same positioned analyze error lifted and un-lifted.
func TestLiftArityError(t *testing.T) {
	const sql = "SELECT 00000FROM p WHERE DUR()"
	cat := liftCatalog()
	var msgs []string
	for _, parse := range []func(string) (*Statement, error){Parse, ParseLifted} {
		st, err := parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.Prepare(cat, plan.DefaultFlags())
		var se *Error
		if !errors.As(err, &se) || se.Code != ErrAnalyze || se.Line != 1 || se.Col != 26 {
			t.Fatalf("Prepare(%q) = %v, want an analyze error at line 1, col 26", sql, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("un-lifted error %q, lifted error %q", msgs[0], msgs[1])
	}
}

// liftSeeds are the texts the differential and the fuzz target start from.
var liftSeeds = []string{
	"SELECT k FROM q WHERE k = 2",
	"SELECT k FROM q WHERE k = -3 OR f < -1.5",
	"SELECT k FROM q WHERE f BETWEEN -2.5 AND 1.5",
	"SELECT k FROM q WHERE 2 <= k AND s = 'a'",
	"SELECT k FROM q WHERE s <> 'b' AND NOT k = 4",
	"SELECT k FROM q WHERE k = 1 + 1",
	"SELECT k FROM q WHERE k - 1 = 1",
	"SELECT k FROM q WHERE k = - 3 + 5",
	"SELECT k FROM q WHERE 1 = 1 AND k > 0",
	"SELECT k FROM q WHERE k = 'x'",
	"SELECT k > 1, COUNT(*) c FROM q WHERE f > 0.0 GROUP BY k > 1",
	"SELECT s, COUNT(*) c FROM q WHERE k < 100 GROUP BY s HAVING COUNT(*) > 1",
	"SELECT k FROM q WHERE k > 0 ORDER BY 1 LIMIT 2",
	"SELECT k FROM q WHERE Ts >= 2 AND Te < 9",
	"SELECT x.k FROM q x JOIN q y ON x.s = y.s AND y.k > 1 WHERE x.k < 4",
	"SELECT x.k FROM q x LEFT JOIN q y ON x.k = y.k AND y.f > 100.0",
	"SELECT k FROM (q a ALIGN q b ON a.s = b.s AND b.k >= 2) x WHERE k <= 4",
	"SELECT k FROM (SELECT k, s FROM q WHERE k <> 2) z WHERE s = 'a'",
	"WITH w AS (SELECT k FROM q WHERE k > 1) SELECT k FROM w WHERE k < 4",
	"SELECT k FROM q WHERE k = 1 UNION SELECT k FROM q WHERE k = 4",
	"SELECT a FROM p WHERE DUR(mn, mx) BETWEEN 1 AND 4",
	"SELECT n FROM r WHERE n = 'Ann' AND Ts < 5",
	"SELECT k FROM q WHERE k = 99999999999999999999",
	"SELECT k FROM q WHERE (k = 2) = (f > 1.0)",
	"SELECT k FROM q WHERE k BETWEEN 1 AND 2 AND f BETWEEN 0.5 AND 2.5",
	"SELECT k FROM q WHERE k = --3",
	"SELECT k FROM q WHERE k IS NOT NULL AND k > -4",
}

// TestLiftedEqualsLiteral is the fuzz property over the seed corpus.
func TestLiftedEqualsLiteral(t *testing.T) {
	cat := liftCatalog()
	for _, sql := range liftSeeds {
		checkLiftedEqualsLiteral(t, cat, sql)
	}
}

// FuzzLiftLiterals: for any text, lifting never panics, and a statement
// that parses returns the rows of its un-lifted self when the lifted
// statement is bound with its own lifted values (or fails exactly when
// the un-lifted one does).
func FuzzLiftLiterals(f *testing.F) {
	for _, sql := range liftSeeds {
		f.Add(sql)
	}
	cat := liftCatalog()
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 400 {
			return
		}
		checkLiftedEqualsLiteral(t, cat, sql)
	})
}
