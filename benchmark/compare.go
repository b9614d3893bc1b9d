package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runRecord is one run of one workload as the results file keeps it:
// the contract's result object plus what produced it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

// resultsFile is what a full benchmark run writes and -compare reads.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return f.Runs, nil
}

func writeResults(path string, runs []runRecord) error {
	data, err := json.MarshalIndent(resultsFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // per-layer metrics carry no bound
)

// comparison is one row of -compare: a metric on a workload, both sides'
// medians over their runs, and what the bound says about the change.
type comparison struct {
	Workload, Metric, Unit string
	Old, New               float64
	// Spread is the wider of the two sides' run-to-run spreads (NaN when a
	// side has fewer than three runs and so no quartiles).
	Spread  float64
	Verdict string
}

// judge applies a metric's bound: a change beyond the bound in the bad
// direction is worse, beyond it in the good direction better, and when
// the runs of either side spread wider than the bound, or are too few to
// have a spread, the pair cannot be told apart at all.
func judge(def metricDef, oldMed, newMed, spread float64) string {
	if def.Bound == 0 {
		return verdictNone
	}
	if math.IsNaN(spread) || spread > def.Bound {
		return verdictUnresolved
	}
	worse := (newMed - oldMed) / oldMed
	if def.Better == higher {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return verdictWorse
	case worse < -def.Bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// compareRuns lines up every metric both sides measured on a workload.
func compareRuns(oldRuns, newRuns []runRecord) []comparison {
	values := func(runs []runRecord, workload, name string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	var out []comparison
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, d := range defs {
				o, n := values(oldRuns, w.name, d.Name), values(newRuns, w.name, d.Name)
				if len(o) == 0 || len(n) == 0 {
					continue
				}
				// The builtin max keeps a NaN from either side.
				c := comparison{Workload: w.name, Metric: d.Name, Unit: d.Unit,
					Old: median(o), New: median(n), Spread: max(spread(o), spread(n))}
				c.Verdict = judge(d, c.Old, c.New, c.Spread)
				out = append(out, c)
			}
		}
		// A statement that failed on one side is a regression whatever
		// the timings say.
		fo, fn := failedShare(oldRuns, w.name), failedShare(newRuns, w.name)
		if fo >= 0 && fn >= 0 {
			c := comparison{Workload: w.name, Metric: "failed_ops_share", Unit: "ratio", Old: fo, New: fn, Spread: math.NaN(), Verdict: verdictUnchanged}
			if fn > fo {
				c.Verdict = verdictWorse
			} else if fn < fo {
				c.Verdict = verdictBetter
			}
			out = append(out, c)
		}
	}
	return out
}

// failedShare is failed over attempted statements across a workload's
// runs, or -1 when there are none.
func failedShare(runs []runRecord, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}

// printComparison writes one row per metric and workload, each ratio
// with its base, and reports whether every bounded metric came out
// unchanged (what an A/A comparison must show).
func printComparison(w io.Writer, rows []comparison) (allUnchanged bool) {
	allUnchanged = true
	fmt.Fprintf(w, "%-18s %-36s %14s %14s %-8s %22s %8s  %s\n", "workload", "metric", "old median", "new median", "unit", "ratio (base = old)", "spread", "verdict")
	for _, c := range rows {
		ratio := "n/a (old is 0)"
		if c.Old != 0 {
			ratio = fmt.Sprintf("%.4f of %.6g", c.New/c.Old, c.Old)
		}
		spread := "n/a"
		if !math.IsNaN(c.Spread) {
			spread = fmt.Sprintf("%.1f%%", 100*c.Spread)
		}
		fmt.Fprintf(w, "%-18s %-36s %14.6g %14.6g %-8s %22s %8s  %s\n", c.Workload, c.Metric, c.Old, c.New, c.Unit, ratio, spread, c.Verdict)
		if c.Verdict != verdictUnchanged && c.Verdict != verdictNone {
			allUnchanged = false
		}
	}
	return allUnchanged
}
