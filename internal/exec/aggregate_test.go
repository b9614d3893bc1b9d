package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

func scanOf(rel *relation.Relation) ColIterator { return NewColScan(rel) }

func TestHashAggregateBasics(t *testing.T) {
	in := relation.NewBuilder("g string", "v int").
		Row(0, 10, "a", 1).
		Row(0, 10, "a", 3).
		Row(0, 10, "b", 5).
		MustBuild()
	groupBy := []expr.Expr{expr.ColIdx{Idx: 0, Typ: value.KindString}}
	arg := expr.ColIdx{Idx: 1, Typ: value.KindInt}
	agg, err := NewColHashAggregate(scanOf(in), groupBy, []string{"g"}, false, []AggSpec{
		{Func: AggCountStar, Name: "c"},
		{Func: AggSum, Arg: arg, Name: "s"},
		{Func: AggAvg, Arg: arg, Name: "a"},
		{Func: AggMin, Arg: arg, Name: "mn"},
		{Func: AggMax, Arg: arg, Name: "mx"},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() != 2 {
		t.Fatalf("want 2 groups, got %d:\n%s", out.Len(), out)
	}
	a := out.Tuples[0]
	if a.Vals[0].Str() != "a" || a.Vals[1].Int() != 2 || a.Vals[2].Int() != 4 ||
		a.Vals[3].Float() != 2.0 || a.Vals[4].Int() != 1 || a.Vals[5].Int() != 3 {
		t.Fatalf("group a wrong: %v", a)
	}
	b := out.Tuples[1]
	if b.Vals[0].Str() != "b" || b.Vals[1].Int() != 1 || b.Vals[2].Int() != 5 {
		t.Fatalf("group b wrong: %v", b)
	}
}

func TestHashAggregateNullHandling(t *testing.T) {
	in := relation.New(relation.NewBuilder("g string", "v int").MustBuild().Schema)
	in.MustAppend(mkT(0, 5, value.NewString("a"), value.Null))
	in.MustAppend(mkT(0, 5, value.NewString("a"), value.NewInt(4)))
	arg := expr.ColIdx{Idx: 1, Typ: value.KindInt}
	agg, err := NewColHashAggregate(scanOf(in),
		[]expr.Expr{expr.ColIdx{Idx: 0, Typ: value.KindString}}, []string{"g"}, false,
		[]AggSpec{
			{Func: AggCountStar, Name: "all"},
			{Func: AggCount, Arg: arg, Name: "nn"},
			{Func: AggSum, Arg: arg, Name: "s"},
		})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	row := out.Tuples[0]
	if row.Vals[1].Int() != 2 || row.Vals[2].Int() != 1 || row.Vals[3].Int() != 4 {
		t.Fatalf("null handling wrong: %v", row)
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	in := relation.NewBuilder("v int").MustBuild()
	arg := expr.ColIdx{Idx: 0, Typ: value.KindInt}
	agg, err := NewColHashAggregate(scanOf(in), nil, nil, false, []AggSpec{
		{Func: AggCountStar, Name: "c"},
		{Func: AggSum, Arg: arg, Name: "s"},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() != 1 || out.Tuples[0].Vals[0].Int() != 0 || !out.Tuples[0].Vals[1].IsNull() {
		t.Fatalf("global empty aggregation wrong: %s", out)
	}
}

func TestHashAggregateGroupByT(t *testing.T) {
	in := relation.NewBuilder("v int").
		Row(0, 5, 1).
		Row(0, 5, 2).
		Row(5, 9, 3).
		MustBuild()
	arg := expr.ColIdx{Idx: 0, Typ: value.KindInt}
	agg, err := NewColHashAggregate(scanOf(in), nil, nil, true, []AggSpec{
		{Func: AggSum, Arg: arg, Name: "s"},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := relation.NewBuilder("s int").
		Row(0, 5, 3).
		Row(5, 9, 3).
		MustBuild()
	if !relation.SetEqual(out, want) {
		t.Fatalf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestSetOps(t *testing.T) {
	a := relation.NewBuilder("x string").
		Row(0, 5, "p").
		Row(5, 9, "q").
		MustBuild()
	b := relation.NewBuilder("x string").
		Row(0, 5, "p").
		Row(9, 12, "r").
		MustBuild()
	mk := func(kind SetOpKind) *relation.Relation {
		op, err := NewColSetOp(NewColScan(a), NewColScan(b), kind)
		if err != nil {
			t.Fatalf("setop: %v", err)
		}
		out, err := Collect(op)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	union := mk(UnionOp)
	wantU := relation.NewBuilder("x string").
		Row(0, 5, "p").
		Row(5, 9, "q").
		Row(9, 12, "r").
		MustBuild()
	if !relation.SetEqual(union, wantU) {
		t.Fatalf("union:\n%s", union)
	}
	inter := mk(IntersectOp)
	wantI := relation.NewBuilder("x string").Row(0, 5, "p").MustBuild()
	if !relation.SetEqual(inter, wantI) {
		t.Fatalf("intersect:\n%s", inter)
	}
	except := mk(ExceptOp)
	wantE := relation.NewBuilder("x string").Row(5, 9, "q").MustBuild()
	if !relation.SetEqual(except, wantE) {
		t.Fatalf("except:\n%s", except)
	}
}

func TestSetOpRejectsIncompatible(t *testing.T) {
	a := relation.NewBuilder("x string").MustBuild()
	b := relation.NewBuilder("x string", "y int").MustBuild()
	if _, err := NewColSetOp(NewColScan(a), NewColScan(b), UnionOp); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func TestSetOpTimestampsDistinguish(t *testing.T) {
	// Same values over different intervals are different set elements.
	a := relation.NewBuilder("x string").Row(0, 5, "p").MustBuild()
	b := relation.NewBuilder("x string").Row(5, 9, "p").MustBuild()
	op, err := NewColSetOp(NewColScan(a), NewColScan(b), UnionOp)
	if err != nil {
		t.Fatalf("setop: %v", err)
	}
	out, err := Collect(op)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() != 2 {
		t.Fatalf("want 2 tuples, got:\n%s", out)
	}
}

func TestDistinct(t *testing.T) {
	in := relation.NewBuilder("x string").
		Row(0, 5, "p").
		Row(0, 5, "p").
		Row(5, 9, "p").
		MustBuild()
	out, err := Collect(NewColDistinct(NewColScan(in)))
	if err != nil {
		t.Fatalf("distinct: %v", err)
	}
	if out.Len() != 2 {
		t.Fatalf("want 2 tuples, got:\n%s", out)
	}
}

func TestSortOrdersAndTieBreaks(t *testing.T) {
	in := relation.NewBuilder("x string", "v int").
		Row(5, 9, "b", 2).
		Row(0, 5, "a", 2).
		Row(0, 3, "a", 1).
		MustBuild()
	s := NewColSort(NewColScan(in),
		SortKey{Expr: expr.ColIdx{Idx: 1, Typ: value.KindInt}, Desc: true},
		SortKey{Expr: expr.TStart{}},
	)
	out, err := Collect(s)
	if err != nil {
		t.Fatalf("sort: %v", err)
	}
	if out.Tuples[0].Vals[0].Str() != "a" || out.Tuples[0].T.Ts != 0 {
		t.Fatalf("first row wrong: %v", out.Tuples[0])
	}
	if out.Tuples[2].Vals[1].Int() != 1 {
		t.Fatalf("last row wrong: %v", out.Tuples[2])
	}
}

func TestFilterAndProject(t *testing.T) {
	in := relation.NewBuilder("x string", "v int").
		Row(0, 5, "a", 1).
		Row(5, 9, "b", 2).
		MustBuild()
	f := NewColFilter(NewColScan(in), expr.Gt(expr.ColIdx{Idx: 1, Typ: value.KindInt}, expr.Int(1)))
	pr := NewColProject(f, []expr.Expr{expr.Mul(expr.ColIdx{Idx: 1, Typ: value.KindInt}, expr.Int(2))},
		schema.MustNew(schema.Attr{Name: "double", Type: value.KindInt}), TKeep, nil)
	out, err := Collect(pr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() != 1 || out.Tuples[0].Vals[0].Int() != 4 || out.Tuples[0].T.Ts != 5 {
		t.Fatalf("filter+project wrong: %s", out)
	}
}

func TestProjectTFromExprDropsEmpty(t *testing.T) {
	in := relation.NewBuilder("a int", "b int").
		Row(0, 1, 3, 7).
		Row(0, 1, 7, 3). // inverted period: dropped
		MustBuild()
	pr := NewColProject(NewColScan(in), []expr.Expr{expr.ColIdx{Idx: 0, Typ: value.KindInt}},
		schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}), TFromExpr,
		expr.Call("PERIOD", expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.ColIdx{Idx: 1, Typ: value.KindInt}))
	out, err := Collect(pr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Len() != 1 || out.Tuples[0].T != (interval.Interval{Ts: 3, Te: 7}) {
		t.Fatalf("TFromExpr wrong: %s", out)
	}
}

// refAcc is the reference accumulator of the aggregate differential: the
// textbook fold over boxed values, one struct per aggregate per group.
type refAcc struct {
	fn    AggFunc
	count int64
	sumI  int64
	sumF  float64
	sawF  bool
	best  value.Value
}

func (a *refAcc) add(v value.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn {
	case AggSum, AggAvg:
		if v.Kind() == value.KindFloat {
			a.sawF = true
			a.sumF += v.Float()
		} else if v.Kind() == value.KindInt {
			a.sumI += v.Int()
			a.sumF += float64(v.Int())
		}
	case AggMin:
		if a.best.IsNull() || v.Compare(a.best) < 0 {
			a.best = v
		}
	case AggMax:
		if a.best.IsNull() || v.Compare(a.best) > 0 {
			a.best = v
		}
	}
}

func (a *refAcc) result() value.Value {
	switch {
	case a.fn == AggCountStar || a.fn == AggCount:
		return value.NewInt(a.count)
	case a.count == 0:
		return value.Null
	case a.fn == AggSum && a.sawF:
		return value.NewFloat(a.sumF)
	case a.fn == AggSum:
		return value.NewInt(a.sumI)
	case a.fn == AggAvg:
		return value.NewFloat(a.sumF / float64(a.count))
	}
	return a.best
}

// refAggregate groups rel with a Go map and returns the groups ascending
// in (group values, T) — the order the operator promises.
func refAggregate(t *testing.T, rel *relation.Relation, groupBy []expr.Expr, groupByT bool, aggs []AggSpec) []tuple.Tuple {
	t.Helper()
	type group struct {
		vals []value.Value
		t    interval.Interval
		accs []refAcc
	}
	groups := map[string]*group{}
	for _, row := range rel.Tuples {
		env := expr.Env{Vals: row.Vals, T: row.T}
		var gt interval.Interval
		if groupByT {
			gt = row.T
		}
		var vals []value.Value
		for _, e := range groupBy {
			v, err := e.Eval(&env)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		key := string(tuple.Tuple{Vals: vals, T: gt}.AppendKey(nil))
		g := groups[key]
		if g == nil {
			g = &group{vals: vals, t: gt, accs: make([]refAcc, len(aggs))}
			for i := range aggs {
				g.accs[i].fn = aggs[i].Func
			}
			groups[key] = g
		}
		for i, a := range aggs {
			if a.Func == AggCountStar {
				g.accs[i].count++
				continue
			}
			v, err := a.Arg.Eval(&env)
			if err != nil {
				t.Fatal(err)
			}
			g.accs[i].add(v)
		}
	}
	if len(rel.Tuples) == 0 && len(groupBy) == 0 && !groupByT {
		g := &group{accs: make([]refAcc, len(aggs))}
		for i := range aggs {
			g.accs[i].fn = aggs[i].Func
		}
		groups[""] = g
	}
	var out []tuple.Tuple
	for _, g := range groups {
		vals := append([]value.Value(nil), g.vals...)
		for i := range g.accs {
			vals = append(vals, g.accs[i].result())
		}
		out = append(out, tuple.Tuple{Vals: vals, T: g.t})
	}
	nk := len(groupBy)
	sort.Slice(out, func(i, j int) bool {
		a := tuple.Tuple{Vals: out[i].Vals[:nk], T: out[i].T}
		b := tuple.Tuple{Vals: out[j].Vals[:nk], T: out[j].T}
		return a.Compare(b) < 0
	})
	return out
}

// TestColHashAggregateDifferential runs every aggregate function — over an
// int argument with ω and float cells mixed in, and MIN/MAX/COUNT over a
// string argument — against the reference, for plain, computed and absent
// group keys, with and without grouping by T, on random and on empty
// inputs, at the default batch size and at 2. Rows must come out in
// ascending key order with identical values (kinds included).
func TestColHashAggregateDifferential(t *testing.T) {
	sch := schema.Schema{Attrs: []schema.Attr{
		{Name: "g", Type: value.KindString}, {Name: "v", Type: value.KindInt}, {Name: "s", Type: value.KindString},
	}}
	g, v, s := expr.CI(0, value.KindString), expr.CI(1, value.KindInt), expr.CI(2, value.KindString)
	var aggs []AggSpec
	for _, fn := range []AggFunc{AggCountStar, AggCount, AggSum, AggAvg, AggMin, AggMax} {
		spec := AggSpec{Func: fn}
		if fn != AggCountStar {
			spec.Arg = v
		}
		aggs = append(aggs, spec)
	}
	aggs = append(aggs, AggSpec{Func: AggMin, Arg: s}, AggSpec{Func: AggMax, Arg: s}, AggSpec{Func: AggCount, Arg: s})
	groupings := []struct {
		name  string
		exprs []expr.Expr
	}{
		{"none", nil},
		{"column", []expr.Expr{g}},
		{"computed", []expr.Expr{expr.Add(v, expr.Int(1)), g}}, // ω, int and float keys; 2 and 2.0 are one group
	}
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 40; round++ {
		rel := relation.New(sch)
		if round > 0 { // round 0: the empty input
			for i, n := 0, rng.Intn(30); i < n; i++ {
				grp := string(rune('a' + rng.Intn(3)))
				var val value.Value
				switch k := rng.Intn(6); {
				case grp == "c" || k == 0: // group "c" is all-ω
					val = value.Null
				case k == 1:
					val = value.NewFloat(float64(rng.Intn(4)) + 0.5*float64(rng.Intn(2)))
				default:
					val = value.NewInt(int64(rng.Intn(5)))
				}
				str := value.NewString([]string{"x", "x\x00", "y"}[rng.Intn(3)])
				if grp == "c" {
					str = value.Null
				}
				ts := int64(rng.Intn(3))
				rel.MustAppend(mkT(ts, ts+1+int64(rng.Intn(2)), value.NewString(grp), val, str))
			}
		}
		for _, gr := range groupings {
			for _, byT := range []bool{false, true} {
				want := refAggregate(t, rel, gr.exprs, byT, aggs)
				names := make([]string, len(gr.exprs))
				for i := range names {
					names[i] = fmt.Sprintf("k%d", i)
				}
				for _, batch := range []int{0, 2} {
					agg, err := NewColHashAggregate(ApplyColBatch(NewColScan(rel), batch), gr.exprs, names, byT, aggs)
					if err != nil {
						t.Fatal(err)
					}
					got := collect(t, ApplyColBatch(agg, batch))
					tag := fmt.Sprintf("round %d group=%s byT=%v batch=%d", round, gr.name, byT, batch)
					if got.Len() != len(want) {
						t.Fatalf("%s: %d groups, want %d\ngot:\n%s\ninput:\n%s", tag, got.Len(), len(want), got, rel)
					}
					for i, w := range want {
						gt := got.Tuples[i]
						if gt.T != w.T || len(gt.Vals) != len(w.Vals) {
							t.Fatalf("%s: row %d is %v, want %v", tag, i, gt, w)
						}
						for c := range w.Vals {
							if gt.Vals[c].Kind() != w.Vals[c].Kind() || !gt.Vals[c].Equal(w.Vals[c]) {
								t.Fatalf("%s: row %d column %d is %v (%s), want %v (%s)\ngot:\n%s\ninput:\n%s",
									tag, i, c, gt.Vals[c], gt.Vals[c].Kind(), w.Vals[c], w.Vals[c].Kind(), got, rel)
							}
						}
					}
				}
			}
		}
	}
}
