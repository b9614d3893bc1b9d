// Package talign's root benchmarks reproduce the paper's evaluation
// (Sec. 7, Figs. 13–16): each panel is one benchmark with one
// sub-benchmark per (series, n), sweeping the panel's sizes at seed 1.
// A point reports its runtime as ns/op and its output cardinality (the
// y axis of Figs. 13b/14b) as the "rows" metric, so 13(a)/(b) and
// 14(a)/(b) are one run each:
//
//	go test -run '^$' -bench Fig -benchtime 1x .
//
// Sizes are scaled down from the paper's 10k–200k, and the quadratic
// series stop at smaller sizes, so the sweep runs in under a minute; the
// series' relative order — who wins, where the crossovers are — is the
// reproduction target (see EXPERIMENTS.md). TestFigureClaims asserts the
// claims that need no clock.
package talign

import (
	"fmt"
	"sync"
	"testing"

	"talign/internal/baseline"
	"talign/internal/core"
	"talign/internal/dataset"
	"talign/internal/relation"
)

// figSeries is one line of a figure panel: the sizes it sweeps and how
// one point is evaluated. point builds the point's inputs (untimed) and
// returns the evaluation the benchmark times, which returns the output
// cardinality.
type figSeries struct {
	name  string
	sizes []int
	point func(n int) func() (int, error)
}

// incumbenSizes is the sweep of the Incumben panels. The quadratic
// series (N{}, sql on D_disj and D_rand) sweep smaller sizes: their
// blow-up is the phenomenon the figures show.
var incumbenSizes = []int{10000, 20000, 40000, 80000}

var (
	// fig13: N{ssn} runtime (a) and output size (b). The paper forces
	// each join method of the group construction; here every θ groups
	// through the one run index (runs by ssn), so the panel is one series.
	fig13 = []figSeries{{"Nssn", incumbenSizes, normalizeIncumben("ssn")}}
	// fig14: runtime (a) and output size (b) of N{}, N{pcn} and N{ssn}.
	fig14 = []figSeries{
		{"Nempty", []int{1000, 2000, 4000}, normalizeIncumben()},
		{"Npcn", incumbenSizes, normalizeIncumben("pcn")},
		{"Nssn", incumbenSizes, normalizeIncumben("ssn")},
	}
	// fig15a: O1 on D_disj — align stays linear, sql's NOT EXISTS is
	// quadratic.
	fig15a = []figSeries{
		{"align", []int{1000, 2000, 4000, 8000, 16000}, o1(baseline.StrategyAlign, dataset.Ddisj)},
		{"sql", []int{1000, 2000}, o1(baseline.StrategySQL, dataset.Ddisj)},
	}
	// fig15b: O1 on D_eq, where every pair overlaps: the output is n².
	fig15b = []figSeries{
		{"align", []int{125, 250, 500, 1000}, o1(baseline.StrategyAlign, dataset.Deq)},
		{"sql", []int{125, 250, 500, 1000}, o1(baseline.StrategySQL, dataset.Deq)},
	}
	// fig15c: O2 on D_rand — the extended snapshot reducibility condition
	// Min ≤ DUR(r.T) ≤ Max.
	fig15c = []figSeries{
		{"align", []int{500, 1000, 2000, 4000}, o2(baseline.StrategyAlign)},
		{"sql", []int{500, 1000, 2000}, o2(baseline.StrategySQL)},
	}
	// fig15d: O3 on Incumben halves; the equality condition lets both
	// approaches use hash joins (Sec. 7.4), so sql needs no cap.
	fig15d = []figSeries{
		{"align", incumbenSizes, o3(baseline.StrategyAlign, incumben)},
		{"sql", incumbenSizes, o3(baseline.StrategySQL, incumben)},
	}
	// fig16a: O3 on Incumben, align vs sql+normalize (normalization-based
	// temporal difference over the intermediate join result).
	fig16a = []figSeries{
		{"align", incumbenSizes, o3(baseline.StrategyAlign, incumben)},
		{"sql+normalize", incumbenSizes, o3(baseline.StrategySQLNormalize, incumben)},
	}
	// fig16b: O3 on the random dataset, with more distinct splitting
	// points and a larger temporal join result.
	fig16b = []figSeries{
		{"align", incumbenSizes, o3(baseline.StrategyAlign, randomIncumben)},
		{"sql+normalize", incumbenSizes, o3(baseline.StrategySQLNormalize, randomIncumben)},
	}
)

func BenchmarkFig13Normalize(b *testing.B)       { benchPanel(b, fig13) }
func BenchmarkFig14NormalizeAttrs(b *testing.B)  { benchPanel(b, fig14) }
func BenchmarkFig15aO1Ddisj(b *testing.B)        { benchPanel(b, fig15a) }
func BenchmarkFig15bO1Deq(b *testing.B)          { benchPanel(b, fig15b) }
func BenchmarkFig15cO2Drand(b *testing.B)        { benchPanel(b, fig15c) }
func BenchmarkFig15dO3Incumben(b *testing.B)     { benchPanel(b, fig15d) }
func BenchmarkFig16aO3IncumbenNorm(b *testing.B) { benchPanel(b, fig16a) }
func BenchmarkFig16bO3RandomNorm(b *testing.B)   { benchPanel(b, fig16b) }

// benchPanel runs every (series, n) point of a panel as a sub-benchmark.
func benchPanel(b *testing.B, panel []figSeries) {
	for _, s := range panel {
		for _, n := range s.sizes {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				b.ReportAllocs()
				run := s.point(n)
				b.ResetTimer()
				rows := 0
				for i := 0; i < b.N; i++ {
					var err error
					if rows, err = run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// TestFigureClaims asserts the panels' claims about output size, which
// need no clock, one subtest per panel. The claims about time stay
// reported by the benchmarks.
func TestFigureClaims(t *testing.T) {
	rows := func(t *testing.T, s figSeries, n int) int {
		t.Helper()
		got, err := s.point(n)()
		if err != nil {
			t.Fatalf("%s at n=%d: %v", s.name, n, err)
		}
		return got
	}
	// Fig. 13(b): N{ssn}'s output grows linearly with its input.
	t.Run("fig13b", func(t *testing.T) {
		if r1, r2 := rows(t, fig13[0], 10000), rows(t, fig13[0], 20000); r2 < r1*18/10 || r2 > r1*22/10 {
			t.Errorf("|N{ssn}| is %d at n=10000 and %d at n=20000, want a ratio in [1.8, 2.2]", r1, r2)
		}
	})
	// Fig. 14(b): fewer grouping attributes split more.
	t.Run("fig14b", func(t *testing.T) {
		const n = 1000
		if e, p, s := rows(t, fig14[0], n), rows(t, fig14[1], n), rows(t, fig14[2], n); !(e > p && p > s && s >= n) {
			t.Errorf("at n=%d: |N{}|=%d |N{pcn}|=%d |N{ssn}|=%d, want N{} > N{pcn} > N{ssn} >= n", n, e, p, s)
		}
	})
	// Figs. 15–16: the output size does not depend on the method.
	for _, fig := range []struct {
		name  string
		panel []figSeries
	}{{"fig15a", fig15a}, {"fig15b", fig15b}, {"fig15c", fig15c}, {"fig15d", fig15d}, {"fig16a", fig16a}, {"fig16b", fig16b}} {
		t.Run(fig.name, func(t *testing.T) {
			n := fig.panel[0].sizes[0]
			want := rows(t, fig.panel[0], n)
			for _, s := range fig.panel[1:] {
				if got := rows(t, s, n); got != want {
					t.Errorf("at n=%d: %s returns %d rows, %s %d", n, s.name, got, fig.panel[0].name, want)
				}
			}
		})
	}
}

// normalizeIncumben evaluates N_attrs(inc; inc) on Incumben.
func normalizeIncumben(attrs ...string) func(int) func() (int, error) {
	return func(n int) func() (int, error) {
		rel, a := incumben(n), core.Default()
		return func() (int, error) { return rowCount(a.Normalize(rel, rel, attrs...)) }
	}
}

// o1 evaluates O1 = r LOJ(true) s on a generated dataset.
func o1(st baseline.Strategy, gen func(n int, seed int64) (r, s *relation.Relation)) func(int) func() (int, error) {
	return func(n int) func() (int, error) {
		r, s := gen(n, 1)
		return func() (int, error) { return rowCount(baseline.LeftOuterJoin(st, r, s, nil)) }
	}
}

// o2 evaluates O2 = r LOJ(Min ≤ DUR(r.T) ≤ Max) s on D_rand.
func o2(st baseline.Strategy) func(int) func() (int, error) {
	return func(n int) func() (int, error) {
		r0, s := dataset.Drand(n, 1)
		r := core.MustExtend(r0, "u")
		return func() (int, error) { return rowCount(baseline.LeftOuterJoin(st, r, s, baseline.O2Theta())) }
	}
}

// o3 evaluates O3 = r FOJ(pcn=pcn2) s over the halves of a dataset.
func o3(st baseline.Strategy, gen func(n int) *relation.Relation) func(int) func() (int, error) {
	return func(n int) func() (int, error) {
		r, s := dataset.SplitHalves(gen(n), []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
		return func() (int, error) { return rowCount(baseline.FullOuterJoin(st, r, s, baseline.O3Theta())) }
	}
}

func rowCount(out *relation.Relation, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return out.Len(), nil
}

// incumbenCache holds the generated Incumben datasets by size. The mutex
// keeps it safe under -race and parallel benchmarks.
var (
	incumbenMu    sync.Mutex
	incumbenCache = map[int]*relation.Relation{}
)

func incumben(n int) *relation.Relation {
	incumbenMu.Lock()
	defer incumbenMu.Unlock()
	if rel, ok := incumbenCache[n]; ok {
		return rel
	}
	rel := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
	incumbenCache[n] = rel
	return rel
}

func randomIncumben(n int) *relation.Relation { return dataset.RandomIncumbenLike(n, 1) }

// BenchmarkPrimitives measures the two primitives and absorb in
// isolation: alignment does one extra comparison per tuple compared to
// normalization (Sec. 6.2/6.3).
func BenchmarkPrimitives(b *testing.B) {
	rel := dataset.RandomIncumbenLike(4000, 2)
	r, s := dataset.SplitHalves(rel, []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
	a := core.Default()
	b.Run("align/theta=pcn", func(b *testing.B) {
		b.ReportAllocs()
		rows := 0
		for i := 0; i < b.N; i++ {
			out, err := a.Align(r, s, baseline.O3Theta())
			if err != nil {
				b.Fatal(err)
			}
			rows = out.Len()
		}
		b.ReportMetric(float64(rows), "rows")
	})
	b.Run("normalize/B=pcn", func(b *testing.B) {
		b.ReportAllocs()
		rows := 0
		for i := 0; i < b.N; i++ {
			out, err := a.Normalize(r, r, "pcn")
			if err != nil {
				b.Fatal(err)
			}
			rows = out.Len()
		}
		b.ReportMetric(float64(rows), "rows")
	})
	b.Run("absorb", func(b *testing.B) {
		b.ReportAllocs()
		aligned, err := a.Align(r, s, baseline.O3Theta())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Absorb(aligned); err != nil {
				b.Fatal(err)
			}
		}
	})
}
