package main

// runSeconds is how long one run measures; BENCHMARK.json carries the
// same number as run_seconds.
const runSeconds = 20

// metricDef describes one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the system sees, measured untraced.
// failed_ops_share is printed by every run but is not listed here: it is
// 0 on a correct build, and the contract carries it as failed/attempted.
// No round time is listed either: on the reference box runs of the same
// code lie a quarter apart by every estimator tried (README.md has the
// measurements), so by the rule of the issue that defined this benchmark
// the four timings are per-layer metrics, reported without a bound.
// setup_s, which the contract requires here, carries its widest bound.
var endToEndMetrics = []metricDef{
	{"allocs_per_row", "count", lower, 0.03},
	{"alloc_bytes_per_row", "B", lower, 0.05},
	{"peak_rss_mb", "MiB", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// execLayers are the suffixes of the per-statement executor metrics: the
// statement names of the rounds, with point_prepared's twenty statements
// folded into "prepared" and "adhoc".
var execLayers = []string{
	"align_ssn", "normalize_ssn", "normalize_pcn", "outer_join", "temporal_agg", "filtered_join",
	"scan_a", "prepared", "adhoc", "time_scan_top10", "time_align", "scan_segments", "agg_pcn", "join_pcn",
}

// distStmts are the cluster workload's four queries.
var distStmts = []string{"align_ssn", "normalize_ssn", "agg_pcn", "join_pcn"}

// perLayerMetrics are measured by the traced run only. A metric of a
// layer the workload does not pass through reads 0.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// These four were end-to-end metrics in the issue that defined
		// this benchmark. Wall-clock times do not repeat within a bound of
		// a tenth on the reference box, nor within a quarter, however many
		// rounds a run holds, so by that issue's rule they are reported
		// without a bound, from the untraced rounds of the traced run.
		{Name: "round_ms_p50", Unit: "ms", Better: lower},
		{Name: "round_ms_p90", Unit: "ms", Better: lower},
		{Name: "first_row_ms_p50", Unit: "ms", Better: lower},
		{Name: "rows_per_s", Unit: "rows/s", Better: higher},
		{Name: "sqlish.parse_us", Unit: "us", Better: lower},
		{Name: "sqlish.prepare_us", Unit: "us", Better: lower},
		{Name: "sqlish.prepare_allocs", Unit: "count", Better: lower},
		{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "server.plan_cache_evictions", Unit: "count", Better: lower},
		{Name: "server.plans_built", Unit: "count", Better: lower},
		{Name: "server.stream_overhead_us", Unit: "us", Better: lower},
		{Name: "plan.build_open_us", Unit: "us", Better: lower},
	}
	for _, l := range execLayers {
		defs = append(defs,
			metricDef{Name: "exec.drain_us." + l, Unit: "us", Better: lower},
			metricDef{Name: "exec.rows." + l, Unit: "count", Better: lower},
			metricDef{Name: "exec.batches." + l, Unit: "count", Better: lower},
			metricDef{Name: "exec.allocs_per_row." + l, Unit: "count", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "wire.encode_us_per_krow", Unit: "us/krow", Better: lower},
		metricDef{Name: "wire.decode_us_per_krow", Unit: "us/krow", Better: lower},
		metricDef{Name: "wire.bytes_per_row", Unit: "B", Better: lower},
		metricDef{Name: "wire.encode_allocs_per_row", Unit: "count", Better: lower},
		metricDef{Name: "wire.decode_allocs_per_row", Unit: "count", Better: lower},
		metricDef{Name: "net.residual_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.create_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.drop_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.disk_bytes_per_row", Unit: "B", Better: lower},
		metricDef{Name: "storage.wal_appends", Unit: "count", Better: lower},
		metricDef{Name: "storage.segments_written", Unit: "count", Better: lower},
		metricDef{Name: "storage.open_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.load_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.decode_segment_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.checkpoint_us", Unit: "us", Better: lower},
		metricDef{Name: "storage.segments_loaded", Unit: "count", Better: lower},
		metricDef{Name: "storage.prune_ratio", Unit: "ratio", Better: higher},
		metricDef{Name: "storage.segments_scanned", Unit: "count", Better: lower},
		metricDef{Name: "distsql.fragments_per_op", Unit: "count", Better: lower},
		metricDef{Name: "distsql.rows_in_per_op", Unit: "count", Better: lower},
		metricDef{Name: "distsql.rows_out_per_op", Unit: "count", Better: lower},
		metricDef{Name: "distsql.bytes_in_per_row", Unit: "B", Better: lower},
		metricDef{Name: "distsql.bytes_out_per_row", Unit: "B", Better: lower},
		metricDef{Name: "distsql.retries", Unit: "count", Better: lower})
	for _, s := range distStmts {
		defs = append(defs,
			metricDef{Name: "distsql.strategy." + s, Unit: "code", Better: lower},
			metricDef{Name: "distsql.shard_exec_us." + s, Unit: "us", Better: lower},
			metricDef{Name: "distsql.ship_us." + s, Unit: "us", Better: lower})
	}
	return append(defs,
		metricDef{Name: "distsql.stage_us", Unit: "us", Better: lower},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: lower})
}

// strategyCodes number the coordinator's execution shapes for
// distsql.strategy.*, which has to be a number; 0 means "not distributed".
var strategyCodes = map[string]float64{
	"scatter": 1, "scatter+final": 2, "partial-aggregate": 3, "repartition": 4, "gather-all": 5,
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// declaredManifest is BENCHMARK.json as this program's tables define it;
// the test suite fails when the committed file says anything else.
func declaredManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	return m
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// unitOf is the declared unit of a metric; setting an undeclared metric
// is a bug in this program.
func unitOf(name string) string {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in manifest.go")
	}
	return d.Unit
}
