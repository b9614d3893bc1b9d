// Command experiments regenerates every figure of the paper's evaluation
// (Sec. 7, Figs. 13–16) on the synthetic datasets and prints the series as
// TSV. Sizes default to a laptop-friendly scale; quadratic baselines are
// capped separately (see -nlmax/-sqlmax) exactly because their blow-up is
// the phenomenon the figures demonstrate.
//
// Usage:
//
//	experiments -fig all|13a|13b|14a|14b|15a|15b|15c|15d|16a|16b [-scale 100]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"talign/internal/baseline"
	"talign/internal/benchkit"
	"talign/internal/core"
	"talign/internal/dataset"
	"talign/internal/plan"
	"talign/internal/relation"
)

var (
	figFlag   = flag.String("fig", "all", "figure to regenerate (13a..16b or all)")
	scaleFlag = flag.Int("scale", 100, "percentage applied to the default sweep sizes")
	nlMax     = flag.Int("nlmax", 4000, "largest input for nested-loop series (quadratic)")
	sqlMax    = flag.Int("sqlmax", 2000, "largest input for standard-SQL series (quadratic)")
	seed      = flag.Int64("seed", 1, "dataset seed")
)

func main() {
	flag.Parse()
	figs := map[string]func() (benchkit.Figure, error){
		"13a": fig13a, "13b": fig13b,
		"14a": fig14a, "14b": fig14b,
		"15a": fig15a, "15b": fig15b, "15c": fig15c, "15d": fig15d,
		"16a": fig16a, "16b": fig16b,
	}
	order := []string{"13a", "13b", "14a", "14b", "15a", "15b", "15c", "15d", "16a", "16b"}
	run := func(id string) {
		f, err := figs[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := f.WriteTSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *figFlag == "all" {
		for _, id := range order {
			run(id)
		}
		return
	}
	if _, ok := figs[*figFlag]; !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 13a..16b or all)\n", *figFlag)
		os.Exit(1)
	}
	run(*figFlag)
}

func sizes(base []int) []int { return benchkit.Scale(base, *scaleFlag) }

// incCache caches generated Incumben datasets per size; the mutex keeps it
// safe if sweeps ever run concurrently.
var (
	incMu    sync.Mutex
	incCache = map[int]*relation.Relation{}
)

func incumben(n int) *relation.Relation {
	incMu.Lock()
	defer incMu.Unlock()
	if rel, ok := incCache[n]; ok {
		return rel
	}
	rel := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: *seed})
	incCache[n] = rel
	return rel
}

// normalizeRun runs N_attrs(inc; inc).
func normalizeRun(attrs []string) benchkit.Runner {
	return func(n int) (int, error) {
		a := core.New(plan.DefaultFlags())
		inc := incumben(n)
		out, err := a.Normalize(inc, inc, attrs...)
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
}

// fig13a: runtime of N{ssn}. Sec. 7.2 forces each join method of the
// group construction; here every θ groups through the one run index
// (runs by ssn), so the panel is one series.
func fig13a() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "13a", Title: "Normalization N{ssn} on Incumben", XLabel: "input tuples"}
	s, err := benchkit.Sweep("hash", sz, normalizeRun([]string{"ssn"}))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// fig13b: output cardinality of N{ssn} (method independent).
func fig13b() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "13b", Title: "Normalization N{ssn} output size", XLabel: "input tuples"}
	s, err := benchkit.Sweep("output", sz, normalizeRun([]string{"ssn"}))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// fig14a/b: N{}, N{pcn}, N{ssn} runtime and output size. N{} splits every
// tuple at every boundary and is therefore capped like the quadratic
// baselines.
func fig14(fig benchkit.Figure) (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	variants := []struct {
		name  string
		attrs []string
		cap   int
	}{
		{"N{}", nil, *nlMax},
		{"N{pcn}", []string{"pcn"}, 1 << 30},
		{"N{ssn}", []string{"ssn"}, 1 << 30},
	}
	for _, v := range variants {
		s, err := benchkit.Sweep(v.name, benchkit.CapSizes(sz, v.cap), normalizeRun(v.attrs))
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

func fig14a() (benchkit.Figure, error) {
	return fig14(benchkit.Figure{ID: "14a", Title: "Normalization attributes: runtime", XLabel: "input tuples"})
}

func fig14b() (benchkit.Figure, error) {
	return fig14(benchkit.Figure{ID: "14b", Title: "Normalization attributes: output size", XLabel: "input tuples"})
}

// outerRunner runs a temporal left outer join workload under a strategy.
func o1Runner(st baseline.Strategy, gen func(n int, seed int64) (*relation.Relation, *relation.Relation)) benchkit.Runner {
	return func(n int) (int, error) {
		r, s := gen(n, *seed)
		out, err := baseline.LeftOuterJoin(st, r, s, nil)
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
}

// fig15a: O1 on D_disj — align stays cheap, sql goes quadratic.
func fig15a() (benchkit.Figure, error) {
	sz := sizes([]int{1000, 2000, 4000, 8000, 16000})
	fig := benchkit.Figure{ID: "15a", Title: "O1 = r LOJ(true) s on D_disj", XLabel: "input tuples per relation"}
	sAlign, err := benchkit.Sweep("align", sz, o1Runner(baseline.StrategyAlign, dataset.Ddisj))
	if err != nil {
		return fig, err
	}
	sSQL, err := benchkit.Sweep("sql", benchkit.CapSizes(sz, *sqlMax), o1Runner(baseline.StrategySQL, dataset.Ddisj))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sSQL)
	return fig, nil
}

// fig15b: O1 on D_eq — sql wins (NOT EXISTS refutes instantly); align's
// group join is quadratic in the overlap count, so both are capped small.
func fig15b() (benchkit.Figure, error) {
	sz := benchkit.CapSizes(sizes([]int{125, 250, 500, 1000}), *sqlMax)
	fig := benchkit.Figure{ID: "15b", Title: "O1 = r LOJ(true) s on D_eq", XLabel: "input tuples per relation"}
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQL} {
		s, err := benchkit.Sweep(st.String(), sz, o1Runner(st, dataset.Deq))
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// fig15c: O2 on D_rand — the ESR condition Min ≤ DUR(r.T) ≤ Max.
func fig15c() (benchkit.Figure, error) {
	sz := sizes([]int{500, 1000, 2000, 4000})
	fig := benchkit.Figure{ID: "15c", Title: "O2 = r LOJ(Min<=DUR(r.T)<=Max) s on D_rand", XLabel: "input tuples per relation"}
	run := func(st baseline.Strategy) benchkit.Runner {
		return func(n int) (int, error) {
			r0, s := dataset.Drand(n, *seed)
			r := core.MustExtend(r0, "u")
			out, err := baseline.LeftOuterJoin(st, r, s, baseline.O2Theta())
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		}
	}
	sAlign, err := benchkit.Sweep("align", sz, run(baseline.StrategyAlign))
	if err != nil {
		return fig, err
	}
	sSQL, err := benchkit.Sweep("sql", benchkit.CapSizes(sz, *sqlMax), run(baseline.StrategySQL))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sSQL)
	return fig, nil
}

// o3Run evaluates O3 = r FOJ(pcn=pcn2) s over dataset halves.
func o3Run(st baseline.Strategy, gen func(n int) *relation.Relation) benchkit.Runner {
	return func(n int) (int, error) {
		r, s := dataset.SplitHalves(gen(n), []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
		out, err := baseline.FullOuterJoin(st, r, s, baseline.O3Theta())
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
}

// fig15d: O3 on Incumben — the equality condition lets both approaches use
// fast joins.
func fig15d() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "15d", Title: "O3 = r FOJ(pcn=pcn) s on Incumben", XLabel: "input tuples total"}
	sAlign, err := benchkit.Sweep("align", sz, o3Run(baseline.StrategyAlign, incumben))
	if err != nil {
		return fig, err
	}
	// O3's equality condition keeps the SQL baseline's joins hash-friendly
	// (Sec. 7.4), so no quadratic cap is needed here.
	sSQL, err := benchkit.Sweep("sql", sz, o3Run(baseline.StrategySQL, incumben))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sSQL)
	return fig, nil
}

// fig16a: O3 align vs sql+normalize on Incumben.
func fig16a() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "16a", Title: "O3 on Incumben: align vs sql+normalize", XLabel: "input tuples total"}
	sAlign, err := benchkit.Sweep("align", sz, o3Run(baseline.StrategyAlign, incumben))
	if err != nil {
		return fig, err
	}
	sNorm, err := benchkit.Sweep("sql+normalize", sz, o3Run(baseline.StrategySQLNormalize, incumben))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sNorm)
	return fig, nil
}

// fig16b: O3 align vs sql+normalize on the random dataset (more splitting
// points, larger temporal join result).
func fig16b() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "16b", Title: "O3 on random data: align vs sql+normalize", XLabel: "input tuples total"}
	gen := func(n int) *relation.Relation { return dataset.RandomIncumbenLike(n, *seed) }
	sAlign, err := benchkit.Sweep("align", sz, o3Run(baseline.StrategyAlign, gen))
	if err != nil {
		return fig, err
	}
	sNorm, err := benchkit.Sweep("sql+normalize", sz, o3Run(baseline.StrategySQLNormalize, gen))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sNorm)
	return fig, nil
}
