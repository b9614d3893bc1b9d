package opt_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/opt"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/tuple"
	"talign/internal/value"
)

// sweepSchema is r(s, f, b, v): string and float keys, an int key and an
// int argument.
var sweepSchema = schema.Schema{Attrs: []schema.Attr{
	{Name: "s", Type: value.KindString}, {Name: "f", Type: value.KindFloat},
	{Name: "b", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
}}

// sweepRel draws n rows of r. Intervals are often copies of, nested in or
// touching an earlier row's. With hard set, keys include ω, "a\x00", ±0
// and NaN, arguments ω and values that wrap an int64 sum, and some rows
// repeat an earlier one; without it, r is what the oracle reads: no ω
// key, no duplicate, no float that prints two ways.
func sweepRel(rng *rand.Rand, n int, hard bool) *relation.Relation {
	strs, floats := []string{"a", "b"}, []float64{0, 1.5}
	if hard {
		strs = append(strs, "a\x00", "")
		floats = append(floats, math.Copysign(0, -1), math.NaN())
	}
	r := relation.New(sweepSchema)
	seen := map[string]bool{}
	for len(r.Tuples) < n {
		ts := rng.Int63n(30)
		iv := interval.Interval{Ts: ts, Te: ts + 1 + rng.Int63n(10)}
		if k := len(r.Tuples); k > 0 {
			prev := r.Tuples[rng.Intn(k)].T
			switch rng.Intn(5) {
			case 0: // identical
				iv = prev
			case 1: // nested
				if prev.Te-prev.Ts > 2 {
					iv = interval.Interval{Ts: prev.Ts + 1, Te: prev.Te - 1}
				}
			case 2: // touching
				iv = interval.Interval{Ts: prev.Te, Te: prev.Te + 1 + rng.Int63n(5)}
			}
		}
		vals := []value.Value{
			value.NewString(strs[rng.Intn(len(strs))]), value.NewFloat(floats[rng.Intn(len(floats))]),
			value.NewInt(rng.Int63n(3)), value.NewInt(rng.Int63n(7) - 3),
		}
		if hard {
			for c := range 3 {
				if rng.Intn(8) == 0 {
					vals[c] = value.Null
				}
			}
			switch rng.Intn(6) {
			case 0:
				vals[3] = value.Null
			case 1:
				vals[3] = value.NewInt(math.MaxInt64 - rng.Int63n(3))
			}
			if k := len(r.Tuples); k > 0 && rng.Intn(6) == 0 {
				r.Tuples = append(r.Tuples, r.Tuples[rng.Intn(k)])
				continue
			}
		}
		tp := tuple.Tuple{Vals: vals, T: iv}
		if key := string(tp.AppendKey(nil)); !seen[key] {
			seen[key] = true
			r.Tuples = append(r.Tuples, tp)
		}
	}
	return r
}

// sweepShape is one temporal aggregation: NORMALIZE USING the key
// columns, GROUP BY group (the keys, in any order), Ts, Te.
type sweepShape struct {
	keys, group []int
}

var (
	sweepShapes = []sweepShape{{[]int{2}, []int{2}}, {[]int{0, 1}, []int{1, 0}}, {[]int{0, 2, 1}, []int{2, 1, 0}}}
	sweepAggs   = []exec.AggSpec{
		{Func: exec.AggCountStar, Name: "n"},
		{Func: exec.AggCount, Arg: expr.CI(3, value.KindInt), Name: "nv"},
		{Func: exec.AggSum, Arg: expr.CI(3, value.KindInt), Name: "sv"},
	}
)

// reduction is the paper's plan of the shape over rel: GROUP BY over
// N_B(r; r), r scanned twice, as the planner builds it.
func (sh sweepShape) reduction(p *plan.Planner, rel *relation.Relation) *plan.AggNode {
	keys := make([]expr.EquiPair, len(sh.keys))
	for i, c := range sh.keys {
		col := expr.CI(c, sweepSchema.Attrs[c].Type)
		keys[i] = expr.EquiPair{Left: col, Right: col}
	}
	groupBy, names := make([]expr.Expr, len(sh.group)), make([]string, len(sh.group))
	for i, c := range sh.group {
		groupBy[i], names[i] = expr.CI(c, sweepSchema.Attrs[c].Type), sweepSchema.Attrs[c].Name
	}
	norm := p.FusedNormalize(p.Scan(rel, "r"), p.Scan(rel, "r"), keys)
	agg, err := p.Aggregate(norm, groupBy, names, true, sweepAggs)
	if err != nil {
		panic(err)
	}
	return agg
}

// rowKeys renders a relation's rows as sorted keys: a multiset.
func rowKeys(rel *relation.Relation) []string {
	keys := make([]string, 0, rel.Len())
	for _, tp := range rel.Rows() {
		keys = append(keys, string(tp.AppendKey(nil)))
	}
	slices.Sort(keys)
	return keys
}

func mustRun(t *testing.T, n plan.Node) *relation.Relation {
	t.Helper()
	rel, err := plan.Run(n)
	if err != nil {
		t.Fatalf("%v\n%s", err, plan.Explain(n))
	}
	return rel
}

// TestSweepAggregateMatchesReduction: the sweep's answer equals the
// HashAggregate-over-FusedAdjust plan's, row for row with multiplicity,
// on ω keys, duplicates, string and float keys, ω arguments, wrapping
// sums, empty and one-row inputs, at batch sizes 2 and the default; and
// the oracle's B,Tϑ_F(r) wherever the oracle reads r.
func TestSweepAggregateMatchesReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, batch := range []int{2, 0} {
		flags := plan.DefaultFlags()
		flags.BatchSize = batch
		p := plan.NewPlanner(flags)
		for trial := range 40 {
			hard, n := trial%2 == 1, trial*3/2
			rel := sweepRel(rng, n, hard)
			for _, sh := range sweepShapes {
				name := fmt.Sprintf("batch %d trial %d keys %v", batch, trial, sh.keys)
				ref := sh.reduction(p, rel)
				sw, ok := opt.Optimize(ref, p).(*plan.SweepAggNode)
				if !ok {
					t.Fatalf("%s: the rule did not fire:\n%s", name, plan.Explain(opt.Optimize(ref, p)))
				}
				got, want := mustRun(t, sw), mustRun(t, ref)
				if g, w := rowKeys(got), rowKeys(want); !slices.Equal(g, w) {
					t.Fatalf("%s: sweep %d rows, reduction %d\nsweep:\n%s\nreduction:\n%s\nr:\n%s", name, len(g), len(w), got, want, rel)
				}
				if hard {
					continue
				}
				cols := make([]string, len(sh.group))
				for i, c := range sh.group {
					cols[i] = sweepSchema.Attrs[c].Name
				}
				or, err := oracle.Aggregation(rel, cols, []oracle.AggSpec{
					{Op: oracle.CountStar, Name: "n"}, {Op: oracle.Count, Arg: expr.C("v"), Name: "nv"}, {Op: oracle.Sum, Arg: expr.C("v"), Name: "sv"},
				})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := rowKeys(got), rowKeys(or); !slices.Equal(g, w) {
					t.Fatalf("%s: sweep disagrees with the oracle\nsweep:\n%s\noracle:\n%s\nr:\n%s", name, got, or, rel)
				}
			}
		}
	}
}

// sweepCatalog is the benchmark's a(ssn, pcn) shape: few employees, many
// positions each, some ω positions.
func sweepCatalog() sqlish.MapCatalog {
	rng := rand.New(rand.NewSource(7))
	a := relation.New(schema.Schema{Attrs: []schema.Attr{{Name: "ssn", Type: value.KindInt}, {Name: "pcn", Type: value.KindInt}}})
	for i := range 300 {
		ts := rng.Int63n(100)
		pcn := value.NewInt(rng.Int63n(6))
		if i%17 == 0 {
			pcn = value.Null
		}
		a.Tuples = append(a.Tuples, tuple.Tuple{Vals: []value.Value{value.NewInt(int64(i % 9)), pcn}, T: interval.Interval{Ts: ts, Te: ts + 1 + rng.Int63n(20)}})
	}
	cat := sqlish.MapCatalog{}
	cat.Register("a", a)
	cat.Register("b", a.Clone())
	return cat
}

const aggEq = "SELECT pcn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM a WHERE ssn = $1) q USING (pcn)) x GROUP BY pcn, Ts, Te"

// TestSweepAggregatePreparedAggEq: the point workload's agg_eq shape
// takes the sweep, and one prepared statement re-executed on one reused
// pipeline with a rotating $1 answers what the reduction answers over
// that employee's rows.
func TestSweepAggregatePreparedAggEq(t *testing.T) {
	cat := sweepCatalog()
	prep, err := sqlish.Prepare(aggEq, cat, plan.DefaultFlags())
	if err != nil {
		t.Fatal(err)
	}
	if text := prep.Explain(); !strings.Contains(text, "SweepAggregate") || strings.Contains(text, "HashAggregate") {
		t.Fatalf("agg_eq does not take the sweep:\n%s", text)
	}
	p := plan.NewPlanner(plan.DefaultFlags())
	for i := range 20 {
		ssn := int64(i*5) % 11 // 9 and 10 select nobody
		cur, err := prep.Stream(context.Background(), value.NewInt(ssn))
		if err != nil {
			t.Fatal(err)
		}
		got := relation.New(prep.Schema())
		for {
			rows, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				break
			}
			got.Tuples = append(got.Tuples, slices.Clone(rows)...)
		}
		if i > 0 && !cur.Reused() {
			t.Errorf("execution %d built a new pipeline", i)
		}
		cur.Close()
		emp := relation.New(cat["a"].Schema)
		for _, tp := range cat["a"].Rows() {
			if tp.Vals[0].Int() == ssn {
				emp.Tuples = append(emp.Tuples, tp)
			}
		}
		pcn := expr.CI(1, value.KindInt)
		norm := p.FusedNormalize(p.Scan(emp, "a"), p.Scan(emp, "a"), []expr.EquiPair{{Left: pcn, Right: pcn}})
		agg, err := p.Aggregate(norm, []expr.Expr{pcn}, []string{"pcn"}, true, []exec.AggSpec{{Func: exec.AggCountStar, Name: "c"}})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := rowKeys(got), rowKeys(mustRun(t, agg)); !slices.Equal(g, w) {
			t.Fatalf("ssn %d: sweep %d rows, reduction %d\n%s", ssn, len(g), len(w), got)
		}
	}
}

// TestSweepAggregateExplain: temporal_agg is one sweep over one scan of
// a, and from the second execution on it reads the index a's image keeps.
func TestSweepAggregateExplain(t *testing.T) {
	e := server.New(server.Config{Flags: plan.DefaultFlags()})
	for name, rel := range sweepCatalog() {
		e.Catalog().Register(name, rel)
	}
	const sql = "SELECT pcn, COUNT(*) c, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te"
	var last string
	for range 2 {
		res := sqltest.MustRun(t, e, "EXPLAIN ANALYZE "+sql)
		last = res.Plan
	}
	if strings.Count(last, "SeqScan a") != 1 || strings.Contains(last, "FusedAdjust") || strings.Contains(last, "HashAggregate") {
		t.Fatalf("temporal_agg is not one sweep over one scan:\n%s", last)
	}
	for _, l := range strings.Split(last, "\n") {
		if strings.Contains(l, "SweepAggregate") && !strings.HasSuffix(l, "(group index shared)") {
			t.Fatalf("second execution did not share the group index: %s", l)
		}
	}
}

// TestSweepAggregateRuleDeclines: every shape outside the rule keeps
// HashAggregate over FusedAdjust — among them a SUM over an int column
// that holds a float, which numeric mixing allows.
func TestSweepAggregateRuleDeclines(t *testing.T) {
	cat := sweepCatalog()
	r := sweepRel(rand.New(rand.NewSource(1)), 20, false)
	cat.Register("r", r)
	mixed := r.Clone()
	mixed.MustAppend(tuple.Tuple{Vals: []value.Value{value.NewString("a"), value.NewFloat(0), value.NewInt(1), value.NewFloat(0.5)}, T: interval.Interval{Ts: 0, Te: 40}})
	cat.Register("m", mixed)
	for _, sql := range []string{
		"SELECT b, SUM(v) sv, Ts, Te FROM (m m1 NORMALIZE m m2 USING (b)) x GROUP BY b, Ts, Te",
		"SELECT pcn, AVG(ssn) m, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te",
		"SELECT pcn, MIN(ssn) m, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te",
		"SELECT pcn, MAX(ssn) m, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te",
		"SELECT b, SUM(f) m, Ts, Te FROM (r r1 NORMALIZE r r2 USING (b)) x GROUP BY b, Ts, Te",
		"SELECT pcn, SUM(ssn + 1) m, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, Ts, Te",
		"SELECT pcn, COUNT(*) c FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn",
		"SELECT pcn, ssn, COUNT(*) c, Ts, Te FROM (a a1 NORMALIZE a a2 USING (pcn)) x GROUP BY pcn, ssn, Ts, Te",
		"SELECT pcn, COUNT(*) c, Ts, Te FROM (a NORMALIZE b USING (pcn)) x GROUP BY pcn, Ts, Te",
		"SELECT pcn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = 1) p NORMALIZE (SELECT ssn, pcn FROM a WHERE ssn = 2) q USING (pcn)) x GROUP BY pcn, Ts, Te",
		"SELECT pcn, COUNT(*) c, Ts, Te FROM (a a1 NORMALIZE a a2 USING ()) x GROUP BY pcn, Ts, Te",
	} {
		prep, err := sqlish.Prepare(sql, cat, plan.DefaultFlags())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		text := prep.Explain()
		agg, adj := strings.Index(text, "HashAggregate"), strings.Index(text, "FusedAdjust normalize")
		if strings.Contains(text, "SweepAggregate") || agg < 0 || adj < agg {
			t.Errorf("%s: want HashAggregate over FusedAdjust, got\n%s", sql, text)
		}
	}
}

// TestSweepAggregateOmegaOnly: rows whose key is ω are never split; equal
// (ω, Ts, Te) rows form one group, counted with multiplicity.
func TestSweepAggregateOmegaOnly(t *testing.T) {
	p := plan.NewPlanner(plan.DefaultFlags())
	rel := relation.New(sweepSchema)
	row := func(b value.Value, ts, te int64, v value.Value) {
		rel.Tuples = append(rel.Tuples, tuple.Tuple{Vals: []value.Value{value.NewString("a"), value.NewFloat(0), b, v}, T: interval.Interval{Ts: ts, Te: te}})
	}
	row(value.Null, 0, 10, value.NewInt(1))
	row(value.Null, 0, 10, value.NewInt(2))
	row(value.Null, 0, 10, value.Null)
	row(value.Null, 5, 10, value.NewInt(4))
	row(value.NewInt(1), 5, 10, value.NewInt(8))
	ref := sweepShapes[0].reduction(p, rel)
	got := mustRun(t, opt.Optimize(ref, p))
	want := []string{"ω 3 2 3 [0,10)", "ω 1 1 4 [5,10)", "1 1 1 8 [5,10)"}
	var rows []string
	for _, tp := range got.Rows() {
		rows = append(rows, fmt.Sprintf("%v %v %v %v [%d,%d)", tp.Vals[0], tp.Vals[1], tp.Vals[2], tp.Vals[3], tp.T.Ts, tp.T.Te))
	}
	if !slices.Equal(rowKeys(got), rowKeys(mustRun(t, ref))) || len(rows) != len(want) {
		t.Fatalf("got %q, want %q", rows, want)
	}
	for _, w := range want {
		if !slices.Contains(rows, w) {
			t.Errorf("missing %q in %q", w, rows)
		}
	}
}

// TestSweepAggregateSQL: through the SQL front end — a column projection
// between the aggregation and N_B, keys grouped in another order, a WITH
// body read as both inputs — the sweep answers what the unoptimized plan
// answers, on r with ω keys and duplicates.
func TestSweepAggregateSQL(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	off := plan.DefaultFlags()
	off.DisableOptimizer = true
	for trial := range 10 {
		cat := sqlish.MapCatalog{}
		cat.Register("r", sweepRel(rng, 5*trial, true))
		for _, sql := range []string{
			"SELECT f, s, COUNT(*) n, SUM(v) sv, COUNT(v) nv, Ts, Te FROM (r r1 NORMALIZE r r2 USING (s, f)) x GROUP BY f, s, Ts, Te",
			"SELECT b, SUM(v) sv, Ts, Te FROM (r r1 NORMALIZE r r2 USING (b)) x GROUP BY b, Ts, Te",
			"WITH w AS (SELECT b, v FROM r WHERE v >= 0) SELECT b, COUNT(*) n, Ts, Te FROM (w w1 NORMALIZE w w2 USING (b)) x GROUP BY b, Ts, Te",
		} {
			on, err := sqlish.Prepare(sql, cat, plan.DefaultFlags())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(on.Explain(), "SweepAggregate") {
				t.Fatalf("%s: no sweep in\n%s", sql, on.Explain())
			}
			ref, err := sqlish.Prepare(sql, cat, off)
			if err != nil {
				t.Fatal(err)
			}
			got, err := on.Execute()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowKeys(got), rowKeys(want); !slices.Equal(g, w) {
				t.Fatalf("trial %d %s: sweep\n%s\nreduction\n%s", trial, sql, got, want)
			}
		}
	}
}
