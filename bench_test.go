// Package talign's root benchmarks regenerate every panel of the paper's
// evaluation (Figs. 13–16) as testing.B benchmarks. Output cardinalities
// (the y axis of Figs. 13b/14b) are reported via the "rows" metric.
// cmd/experiments runs the same workloads as full parameter sweeps.
//
// Sizes are scaled down from the paper's 10k–200k so the full suite runs
// in minutes; the series' relative order — who wins, where the crossovers
// are — is the reproduction target (see EXPERIMENTS.md).
package talign

import (
	"sync"
	"testing"

	"talign/internal/baseline"
	"talign/internal/core"
	"talign/internal/dataset"
	"talign/internal/relation"
)

// benchIncumben caches the scaled synthetic Incumben dataset. The mutex
// keeps the cache safe under -race and parallel benchmarks (testing.B may
// run b.RunParallel bodies and subtests concurrently).
var (
	benchMu       sync.Mutex
	benchIncumben = map[int]*relation.Relation{}
)

func incumbenN(b *testing.B, n int) *relation.Relation {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if rel, ok := benchIncumben[n]; ok {
		return rel
	}
	rel := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 1})
	benchIncumben[n] = rel
	return rel
}

func reportRows(b *testing.B, rows int) {
	b.Helper()
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFig13Normalize reproduces Fig. 13(a): N_{ssn} on Incumben, and
// Fig. 13(b) through the reported rows metric. The paper forces each join
// method of normalization's group construction; here every θ groups
// through the one run index (runs by ssn), so the panel is one series.
func BenchmarkFig13Normalize(b *testing.B) {
	b.Run("n=8000", func(b *testing.B) {
		b.ReportAllocs()
		rel := incumbenN(b, 8000)
		a := core.Default()
		b.ResetTimer()
		rows := 0
		for i := 0; i < b.N; i++ {
			out, err := a.Normalize(rel, rel, "ssn")
			if err != nil {
				b.Fatal(err)
			}
			rows = out.Len()
		}
		reportRows(b, rows)
	})
}

// BenchmarkFig14NormalizeAttrs reproduces Fig. 14(a)/(b): runtime and
// output size of N_{}, N_{pcn} and N_{ssn} on Incumben.
func BenchmarkFig14NormalizeAttrs(b *testing.B) {
	variants := []struct {
		name  string
		attrs []string
		n     int
	}{
		{"Nempty/n=1000", nil, 1000},
		{"Npcn/n=8000", []string{"pcn"}, 8000},
		{"Nssn/n=8000", []string{"ssn"}, 8000},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			rel := incumbenN(b, v.n)
			a := core.Default()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := a.Normalize(rel, rel, v.attrs...)
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig15aO1Ddisj reproduces Fig. 15(a): O1 on D_disj, align vs the
// standard-SQL formulation (quadratic NOT EXISTS).
func BenchmarkFig15aO1Ddisj(b *testing.B) {
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQL} {
		b.Run(st.String()+"/n=1000", func(b *testing.B) {
			b.ReportAllocs()
			r, s := dataset.Ddisj(1000, 1)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := baseline.LeftOuterJoin(st, r, s, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig15bO1Deq reproduces Fig. 15(b): O1 on D_eq, where the SQL
// formulation wins because NOT EXISTS refutes on the first probe.
func BenchmarkFig15bO1Deq(b *testing.B) {
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQL} {
		b.Run(st.String()+"/n=250", func(b *testing.B) {
			b.ReportAllocs()
			r, s := dataset.Deq(250, 1)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := baseline.LeftOuterJoin(st, r, s, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig15cO2Drand reproduces Fig. 15(c): O2 with the extended
// snapshot reducibility condition Min ≤ DUR(r.T) ≤ Max on D_rand.
func BenchmarkFig15cO2Drand(b *testing.B) {
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQL} {
		b.Run(st.String()+"/n=1000", func(b *testing.B) {
			b.ReportAllocs()
			r0, s := dataset.Drand(1000, 1)
			r := core.MustExtend(r0, "u")
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := baseline.LeftOuterJoin(st, r, s, baseline.O2Theta())
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig15dO3Incumben reproduces Fig. 15(d): the full outer join O3
// on Incumben halves, where the equality condition lets both approaches
// use fast join methods.
func BenchmarkFig15dO3Incumben(b *testing.B) {
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQL} {
		b.Run(st.String()+"/n=8000", func(b *testing.B) {
			b.ReportAllocs()
			r, s := dataset.SplitHalves(incumbenN(b, 8000), []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := baseline.FullOuterJoin(st, r, s, baseline.O3Theta())
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig16aO3IncumbenNorm reproduces Fig. 16(a): O3 on Incumben,
// align vs sql+normalize (normalization-based temporal difference over the
// intermediate join result).
func BenchmarkFig16aO3IncumbenNorm(b *testing.B) {
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQLNormalize} {
		b.Run(st.String()+"/n=8000", func(b *testing.B) {
			b.ReportAllocs()
			r, s := dataset.SplitHalves(incumbenN(b, 8000), []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := baseline.FullOuterJoin(st, r, s, baseline.O3Theta())
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig16bO3RandomNorm reproduces Fig. 16(b): O3 on the random
// dataset with more distinct splitting points, where sql+normalize loses
// more ground.
func BenchmarkFig16bO3RandomNorm(b *testing.B) {
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQLNormalize} {
		b.Run(st.String()+"/n=8000", func(b *testing.B) {
			b.ReportAllocs()
			rel := dataset.RandomIncumbenLike(8000, 1)
			r, s := dataset.SplitHalves(rel, []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				out, err := baseline.FullOuterJoin(st, r, s, baseline.O3Theta())
				if err != nil {
					b.Fatal(err)
				}
				rows = out.Len()
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkPrimitives measures the two primitives in isolation: the
// ablation behind the Sec. 6.2/6.3 cost model (alignment does one extra
// comparison per tuple compared to normalization).
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
		reportRows(b, rows)
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
		reportRows(b, rows)
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
