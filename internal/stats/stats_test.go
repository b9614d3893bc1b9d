package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/dataset"
	"talign/internal/interval"
	"talign/internal/raceflag"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/storage"
	"talign/internal/tuple"
	"talign/internal/value"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestAnalyzeColumns(t *testing.T) {
	b := relation.NewBuilder("a int", "s string")
	for i := 0; i < 100; i++ {
		b.Row(int64(i), int64(i+1), int64(i%10), string(rune('a'+i%3)))
	}
	b.Row(100, 101, nil, nil)
	rel := b.MustBuild()

	st := Analyze(rel)
	if st.Rows != 101 {
		t.Fatalf("Rows = %d, want 101", st.Rows)
	}
	a := st.Col(0)
	if a == nil {
		t.Fatal("no stats for column 0")
	}
	approx(t, "a.Distinct", a.Distinct, 10, 0)
	approx(t, "a.NullFrac", a.NullFrac, 1.0/101, 1e-9)
	if a.Min.Int() != 0 || a.Max.Int() != 9 {
		t.Errorf("a range = [%s, %s], want [0, 9]", a.Min, a.Max)
	}
	s := st.Col(1)
	approx(t, "s.Distinct", s.Distinct, 3, 0)

	if sel, ok := a.SelEq(value.NewInt(3)); !ok || math.Abs(sel-(100.0/101)/10) > 1e-9 {
		t.Errorf("SelEq(3) = %g, %v", sel, ok)
	}
	if sel, ok := a.SelEq(value.NewInt(99)); !ok || sel > 1e-6 {
		t.Errorf("SelEq(out of range) = %g, %v, want ~0", sel, ok)
	}
	// a < 5 keeps values 0..4, half the distribution.
	if sel, ok := a.SelRange(OpLT, value.NewInt(5)); !ok || math.Abs(sel-0.5) > 0.1 {
		t.Errorf("SelRange(< 5) = %g, %v, want ~0.5", sel, ok)
	}
	// Boundary buckets with heavy duplicates cost some precision; a loose
	// tolerance is fine — the planner only needs the right magnitude.
	if sel, ok := a.SelRange(OpGE, value.NewInt(5)); !ok || math.Abs(sel-0.5) > 0.15 {
		t.Errorf("SelRange(>= 5) = %g, %v, want ~0.5", sel, ok)
	}
}

func TestAnalyzeIntervals(t *testing.T) {
	// Three disjoint tuples plus one spanning all of them.
	rel := relation.NewBuilder("a int").
		Row(0, 10, 1).
		Row(10, 20, 2).
		Row(20, 30, 3).
		Row(0, 30, 4).
		MustBuild()
	st := Analyze(rel)
	if st.T.Span.Ts != 0 || st.T.Span.Te != 30 {
		t.Errorf("span = %v, want [0, 30)", st.T.Span)
	}
	approx(t, "AvgDur", st.T.AvgDur, (10+10+10+30)/4.0, 1e-9)
	approx(t, "DistinctT", st.T.DistinctT, 4, 0)
	// Overlapping pairs: the spanning tuple overlaps each of the three
	// disjoint ones; 3 pairs → average 2·3/4 = 1.5 partners per tuple.
	approx(t, "AvgOverlap", st.T.AvgOverlap, 1.5, 1e-9)
}

func TestNilSafety(t *testing.T) {
	var tb *Table
	if c := tb.Col(0); c != nil {
		t.Fatal("nil Table.Col should be nil")
	}
	var c *Column
	if _, ok := c.SelEq(value.NewInt(1)); ok {
		t.Error("nil column SelEq should report !ok")
	}
	if _, ok := c.SelRange(OpLT, value.NewInt(1)); ok {
		t.Error("nil column SelRange should report !ok")
	}
	if _, ok := EqJoinSel(nil, nil); ok {
		t.Error("EqJoinSel(nil, nil) should report !ok")
	}
	if sel, ok := EqJoinSel(&Column{Distinct: 4}, nil); !ok || sel != 0.25 {
		t.Errorf("one-sided EqJoinSel = %g, %v, want 0.25", sel, ok)
	}
	if _, ok := OverlapFrac(nil, tb); ok {
		t.Error("OverlapFrac(nil, nil) should report !ok")
	}
}

func TestHistogramFracBelow(t *testing.T) {
	vals := make([]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		vals = append(vals, value.NewInt(int64(i)))
	}
	h := summarize(vals, len(vals), value.Value.Compare, func(v value.Value) value.Value { return v }).Hist
	if h.Buckets() != HistBuckets {
		t.Fatalf("buckets = %d, want %d", h.Buckets(), HistBuckets)
	}
	for _, tc := range []struct {
		v    int64
		want float64
	}{{0, 0}, {25, 0.25}, {50, 0.5}, {99, 1}, {1000, 1}, {-5, 0}} {
		got, ok := h.FracBelow(value.NewInt(tc.v))
		if !ok {
			t.Fatalf("FracBelow(%d) not ok", tc.v)
		}
		approx(t, "FracBelow", got, tc.want, 0.05)
	}
	if _, ok := (Histogram{}).FracBelow(value.NewInt(1)); ok {
		t.Error("empty histogram should report !ok")
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := relation.NewBuilder("a int").MustBuild()
	st := Analyze(rel)
	if st.Rows != 0 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	if c := st.Col(0); c.Distinct != 0 || !c.Min.IsNull() {
		t.Errorf("empty column stats = %+v", c)
	}
}

// refAnalyze is the boxed ANALYZE that Analyze replaced: every non-null
// value and every duration in a value.Value, sorted with sort.Slice and
// Value.Compare, and the (Ts, Te) order an []int permutation.
func refAnalyze(rel *relation.Relation) *Table {
	cols := make([]*Column, rel.Schema.Len())
	for col := range cols {
		var vals []value.Value
		for _, tp := range rel.Rows() {
			if v := tp.Vals[col]; !v.IsNull() {
				vals = append(vals, v)
			}
		}
		c := refColumn(vals)
		if rel.Len() > 0 {
			c.NullFrac = float64(rel.Len()-len(vals)) / float64(rel.Len())
		}
		cols[col] = &c
	}
	return &Table{Rows: int64(rel.Len()), Cols: cols, T: refIntervals(rel)}
}

// refColumn sorts boxed values and derives distinct count, Min/Max and the
// equi-depth bounds.
func refColumn(vals []value.Value) Column {
	c := Column{Min: value.Null, Max: value.Null}
	if len(vals) == 0 {
		return c
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].Compare(vals[b]) < 0 })
	distinct := 1
	for i := 1; i < len(vals); i++ {
		if vals[i].Compare(vals[i-1]) != 0 {
			distinct++
		}
	}
	c.Distinct = float64(distinct)
	c.Min, c.Max = vals[0], vals[len(vals)-1]
	b := min(HistBuckets, distinct)
	for i := 0; i <= b; i++ {
		c.Hist.Bounds = append(c.Hist.Bounds, vals[i*(len(vals)-1)/b])
	}
	return c
}

func refIntervals(rel *relation.Relation) IntervalStats {
	n := rel.Len()
	if n == 0 {
		return IntervalStats{}
	}
	starts, ends := rel.ValidTimes()
	durs := make([]value.Value, n)
	var durSum float64
	st := IntervalStats{Span: interval.Interval{Ts: starts[0], Te: ends[0]}}
	for i := range starts {
		durs[i] = value.NewInt(ends[i] - starts[i])
		durSum += float64(ends[i] - starts[i])
		st.Span.Ts, st.Span.Te = min(st.Span.Ts, starts[i]), max(st.Span.Te, ends[i])
	}
	st.AvgDur = durSum / float64(n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if starts[ia] != starts[ib] {
			return starts[ia] < starts[ib]
		}
		return ends[ia] < ends[ib]
	})
	distinctT := 1
	for k := 1; k < n; k++ {
		a, b := order[k-1], order[k]
		if starts[a] != starts[b] || ends[a] != ends[b] {
			distinctT++
		}
	}
	st.DistinctT = float64(distinctT)
	sortedTs := make([]int64, n)
	for k, idx := range order {
		sortedTs[k] = starts[idx]
	}
	var pairs float64
	for k, idx := range order {
		te := ends[idx]
		hi := sort.Search(n, func(j int) bool { return sortedTs[j] >= te })
		if hi > k+1 {
			pairs += float64(hi - k - 1)
		}
	}
	st.AvgOverlap = 2 * pairs / float64(n)
	st.DurHist = refColumn(durs).Hist
	return st
}

// sameAs reports whether a statistic value matches the reference's: equal
// under Value.Compare, and of the same kind unless the column mixes kinds.
func sameAs(got, want value.Value, mixed bool) bool {
	return got.Compare(want) == 0 && (mixed || got.Kind() == want.Kind())
}

// checkAgainstRef compares Analyze(rel) with refAnalyze(rel): counts and
// floats exactly, values by sameAs. mixed names the columns whose values
// have more than one kind.
func checkAgainstRef(t *testing.T, name string, rel *relation.Relation, mixed map[int]bool) {
	t.Helper()
	got, want := Analyze(rel), refAnalyze(rel)
	sameHist := func(g, w Histogram, mixed bool) bool {
		if len(g.Bounds) != len(w.Bounds) {
			return false
		}
		for i := range g.Bounds {
			if !sameAs(g.Bounds[i], w.Bounds[i], mixed) {
				return false
			}
		}
		return true
	}
	if got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: rows/cols %d/%d, want %d/%d", name, got.Rows, len(got.Cols), want.Rows, len(want.Cols))
	}
	for i := range got.Cols {
		g, w := got.Cols[i], want.Cols[i]
		if g.NullFrac != w.NullFrac || g.Distinct != w.Distinct || !sameAs(g.Min, w.Min, mixed[i]) ||
			!sameAs(g.Max, w.Max, mixed[i]) || !sameHist(g.Hist, w.Hist, mixed[i]) {
			t.Errorf("%s: column %d (%s) = %+v, want %+v", name, i, rel.Schema.Attrs[i], *g, *w)
		}
	}
	g, w := got.T, want.T
	if g.Span != w.Span || g.AvgDur != w.AvgDur || g.DistinctT != w.DistinctT ||
		g.AvgOverlap != w.AvgOverlap || !sameHist(g.DurHist, w.DurHist, false) {
		t.Errorf("%s: valid time = %+v, want %+v", name, g, w)
	}
}

// forms returns rel row-born, as one image, and loaded from a store that
// cut it into segments of segRows rows.
func forms(t testing.TB, rel *relation.Relation, segRows int) map[string]*relation.Relation {
	t.Helper()
	s, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SegmentRows = segRows
	if err := s.CreateTable("t", rel); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Load("t")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*relation.Relation{
		"rows":     rel,
		"image":    relation.FromColumnar(colbatch.FromTuples(nil, rel.Schema, rel.Tuples)),
		"segments": loaded,
	}
}

// kindsRelation holds one column per shape ANALYZE distinguishes: int,
// float with NaN, ±0 and ±Inf, strings with "" and "a\x00", bool,
// interval, a float column with int values and an int column with float
// values (both demoted), an all-ω int column and an untyped one, each with
// some ω; many rows share (Ts, Te).
func kindsRelation(n int) *relation.Relation {
	sch := schema.MustNew(
		schema.Attr{Name: "i", Type: value.KindInt},
		schema.Attr{Name: "f", Type: value.KindFloat},
		schema.Attr{Name: "s", Type: value.KindString},
		schema.Attr{Name: "b", Type: value.KindBool},
		schema.Attr{Name: "iv", Type: value.KindInterval},
		schema.Attr{Name: "m", Type: value.KindFloat},
		schema.Attr{Name: "mi", Type: value.KindInt},
		schema.Attr{Name: "w", Type: value.KindInt},
		schema.Attr{Name: "u", Type: value.KindNull},
	)
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300}
	strs := []string{"", "a\x00", "a", "b", "\x00", "zz"}
	rng := rand.New(rand.NewSource(11))
	rel := relation.New(sch)
	for r := 0; r < n; r++ {
		omega := func(v value.Value) value.Value {
			if rng.Intn(7) == 0 {
				return value.Null
			}
			return v
		}
		ts := int64(rng.Intn(40))
		m, mi := value.NewFloat(float64(rng.Intn(5))), value.NewInt(int64(rng.Intn(5)))
		if rng.Intn(2) == 0 {
			m, mi = mi, m
		}
		rel.Tuples = append(rel.Tuples, tuple.Tuple{
			Vals: []value.Value{
				omega(value.NewInt(int64(rng.Intn(50) - 25))),
				omega(value.NewFloat(floats[rng.Intn(len(floats))])),
				omega(value.NewString(strs[rng.Intn(len(strs))])),
				omega(value.NewBool(rng.Intn(2) == 0)),
				omega(value.NewInterval(interval.New(ts, ts+int64(rng.Intn(3))+1))),
				omega(m),
				omega(mi),
				value.Null,
				omega(value.NewString(strs[rng.Intn(len(strs))])),
			},
			T: interval.New(ts, ts+1+int64(rng.Intn(1+rng.Intn(30)))),
		})
	}
	return rel
}

// TestAnalyzeMatchesReference: Analyze computes refAnalyze's statistics
// over every column shape, relation size and form.
func TestAnalyzeMatchesReference(t *testing.T) {
	mixed := map[int]bool{5: true, 6: true}
	for _, n := range []int{0, 1, 2, 37, 1000} {
		for form, rel := range forms(t, kindsRelation(n), 64) {
			checkAgainstRef(t, fmt.Sprintf("kinds/n=%d/%s", n, form), rel, mixed)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := randrel.Config{MaxTuples: 300, TimeMax: 60, Alphabet: 6, Attrs: []schema.Attr{
			{Name: "a", Type: value.KindInt}, {Name: "s", Type: value.KindString}}}
		rel := randrel.Generate(rand.New(rand.NewSource(seed)), cfg)
		for form, r := range forms(t, rel, 32) {
			checkAgainstRef(t, fmt.Sprintf("randrel/%d/%s", seed, form), r, nil)
		}
	}
	dr, ds := dataset.Drand(8000, 1)
	for name, rel := range map[string]*relation.Relation{
		"incumben": dataset.Incumben(dataset.IncumbenConfig{Rows: 8000, Seed: 1}),
		"drand_r":  dr,
		"drand_s":  ds,
	} {
		for form, r := range forms(t, rel, storage.DefaultSegmentRows) {
			checkAgainstRef(t, name+"/"+form, r, nil)
		}
	}
}

// TestAnalyzeAllocPin: ANALYZE of a batch-born 8 000-row Incumben relation
// allocates one typed key per value, one interval and one duration per row
// (about 40 B a row) and a few slices per column. With every value and
// duration boxed and the (Ts, Te) order an []int it read about 160 B a row.
func TestAnalyzeAllocPin(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 8000
	src := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
	rel := relation.FromColumnar(colbatch.FromTuples(nil, src.Schema, src.Tuples))
	Analyze(rel)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Analyze(rel)
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
	mallocs := after.Mallocs - before.Mallocs
	cols := uint64(rel.Schema.Len())
	t.Logf("Analyze of %d rows, %d columns: %.1f B/row, %d mallocs", n, cols, perRow, mallocs)
	if perRow > 72 {
		t.Errorf("Analyze allocates %.1f B per row, want at most 72", perRow)
	}
	if mallocs > 4*cols+8 {
		t.Errorf("Analyze makes %d mallocs, want at most %d", mallocs, 4*cols+8)
	}
}

// BenchmarkAnalyze times ANALYZE of the benchmark's Incumben relation,
// row-born and loaded from segments.
func BenchmarkAnalyze(b *testing.B) {
	for _, n := range []int{8000, 64000} {
		rel := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
		fs := forms(b, rel, storage.DefaultSegmentRows)
		for _, form := range []string{"rows", "segments"} {
			b.Run(fmt.Sprintf("%s/n=%d", form, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					Analyze(fs[form])
				}
			})
		}
	}
}
