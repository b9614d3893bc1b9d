package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// TestTailRule pins the "at least ten samples beyond" rule that decides
// which tail percentile a sample supports.
func TestTailRule(t *testing.T) {
	cases := []struct {
		samples int
		p       float64
		want    bool
	}{
		{99, 90, false}, {100, 90, true}, {150, 90, true},
		{999, 99, false}, {1000, 99, true}, {100, 99, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.samples, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.samples, c.p, got, c.want)
		}
	}
}

// TestQuartiles checks against values computed with Python's
// statistics.quantiles(xs, n=4), the contract's definition of spread.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (5.5 between quartiles over a median of 5.5)", got)
	}
	if got := spread([]float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("spread of two values = %v, want NaN (unknown)", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "nested", Parent: 0, Start: 10, End: 40},
		{Name: "inner", Parent: 1, Start: 15, End: 25},     // grandchild: not root's business
		{Name: "overlapA", Parent: 0, Start: 50, End: 70},  // two parallel parts
		{Name: "overlapB", Parent: 0, Start: 60, End: 80},  // ... covering 50-80 together
		{Name: "contained", Parent: 0, Start: 62, End: 65}, // wholly inside overlapA
		{Name: "overrun", Parent: 0, Start: 95, End: 120},  // runs past its parent
		{Name: "leaf", Parent: -1, Start: 200, End: 230},
	}
	want := []time.Duration{100 - 30 - 30 - 5, 20, 10, 20, 20, 3, 25, 30}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorder(t *testing.T) {
	r := newRecorder()
	root := r.start("op", 1, -1)
	child := r.start("client.query", 1, root)
	inner := r.end(child)
	outer := r.end(root)
	if r.spans[child].Parent != root || r.spans[child].Op != 1 {
		t.Errorf("child span = %+v", r.spans[child])
	}
	if outer < inner {
		t.Errorf("root %v shorter than child %v", outer, inner)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, r.spans) {
		t.Errorf("span dump does not round-trip: %v", err)
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "peak_rss_mb", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "rows_per_s", Better: higher, Bound: 0.10}
	cases := []struct {
		def              metricDef
		old, new, spread float64
		want             string
	}{
		{lowerIsBetter, 100, 105, 0.02, verdictUnchanged},
		{lowerIsBetter, 100, 111, 0.02, verdictWorse},
		{lowerIsBetter, 100, 89, 0.02, verdictBetter},
		{lowerIsBetter, 100, 150, 0.12, verdictUnresolved},
		{lowerIsBetter, 100, 100, math.NaN(), verdictUnresolved}, // too few runs for a spread
		{higherIsBetter, 100, 111, 0, verdictBetter},
		{higherIsBetter, 100, 89, 0, verdictWorse},
		{metricDef{Name: "sqlish.parse_us", Better: lower}, 10, 20, 0, verdictNone},
	}
	for _, c := range cases {
		if got := judge(c.def, c.old, c.new, c.spread); got != c.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", c.def.Name, c.old, c.new, c.spread, got, c.want)
		}
	}
}

// TestCompareFixtures runs -compare's logic over two committed results
// files: three runs a side of one workload, crafted so that each verdict
// appears once.
func TestCompareFixtures(t *testing.T) {
	oldRuns, err := readResults("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	newRuns, err := readResults("testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, c := range compareRuns(oldRuns, newRuns) {
		if c.Workload != "remote_stream" {
			t.Errorf("unexpected workload %q in comparison", c.Workload)
		}
		got[c.Metric] = c.Verdict
	}
	want := map[string]string{
		"setup_s":             verdictWorse,      // 0.5 -> 0.65 s, bound 25 %
		"alloc_bytes_per_row": verdictUnresolved, // new side spreads 14 %, bound 5 %
		"peak_rss_mb":         verdictBetter,     // 30 -> 24 MiB, bound 10 %
		"allocs_per_row":      verdictUnchanged,  // 16.8 -> 16.9, bound 3 %
		"rows_per_s":          verdictNone,       // demoted: reported, not judged
		"failed_ops_share":    verdictWorse,      // a statement failed on the new side
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts = %v, want %v", got, want)
	}
	var out bytes.Buffer
	if printComparison(&out, compareRuns(oldRuns, newRuns)) {
		t.Error("printComparison reported all unchanged")
	}
	if !strings.Contains(out.String(), "1.3000 of 0.5") {
		t.Errorf("ratio is not printed with its base:\n%s", out.String())
	}
	out.Reset()
	if !printComparison(&out, compareRuns(oldRuns, oldRuns)) {
		t.Errorf("a file compared with itself is not all unchanged:\n%s", out.String())
	}
	// One run a side has no spread: nothing can be called unchanged.
	for _, c := range compareRuns(oldRuns[:1], oldRuns[:1]) {
		if c.Metric != "failed_ops_share" && c.Metric != "rows_per_s" && c.Verdict != verdictUnresolved {
			t.Errorf("single runs: %s judged %s, want %s", c.Metric, c.Verdict, verdictUnresolved)
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables in manifest.go and to
// the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want := declaredManifest()
	wantJSON, _ := json.MarshalIndent(want, "", "  ")
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nBENCHMARK.json should read:\n%s", err, wantJSON)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from manifest.go; it should read:\n%s", wantJSON)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range want.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range want.PerLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, want.EndToEnd...), want.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q or direction %q is outside the contract", d.Name, d.Unit, d.Better)
		}
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(data))
	}
}

// TestSmoke runs all five workloads small, untraced and traced, and
// asserts that every run is correct and prints every metric of
// BENCHMARK.json exactly once, with its unit and a finite value.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	begin := time.Now()
	if err := smoke(&out, dir); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	// About a second on the reference box; not asserted, because a
	// throttled host stretches it tenfold without anything being wrong.
	t.Logf("smoke took %v", time.Since(begin))
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("smoke left %d entries behind in its scratch directory", len(left))
	}
	lines := strings.Split(out.String(), "\n")
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, d := range defs {
				prefix := w.name + " " + d.Name + " = "
				var found []string
				for _, l := range lines {
					if strings.HasPrefix(l, prefix) {
						found = append(found, l)
					}
				}
				if len(found) != 1 {
					t.Errorf("%s%s printed %d times, want once", prefix, "...", len(found))
					continue
				}
				if !strings.HasSuffix(found[0], " "+d.Unit) {
					t.Errorf("%q does not end in unit %q", found[0], d.Unit)
				}
			}
		}
	}
	// The result objects: one per run, exactly the contract's keys, every
	// declared metric of the run's kind and nothing else, all finite.
	objects := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		objects++
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(l), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
			t.Errorf("result object has keys other than correct, attempted, failed, metrics: %s", l)
		}
		var res result
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("run not correct: %s", l)
		}
		defs := endToEndMetrics
		if _, traced := res.Metrics["trace.overhead_pct"]; traced {
			defs = perLayerMetrics
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("metric %s missing, in the wrong unit or not finite: %+v", d.Name, m)
			}
		}
		for _, d := range endToEndMetrics {
			if m, ok := res.Metrics[d.Name]; ok && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
			}
		}
	}
	if objects != 2*len(workloads) {
		t.Errorf("%d result objects, want %d", objects, 2*len(workloads))
	}
}
