package server

import (
	"fmt"
	"net/http"

	"talign/internal/exec"
	"talign/internal/storage"
)

// handleMetrics renders the server's operational counters in Prometheus
// text exposition format: query/error/cancellation totals, wire-level
// streaming volume, plan-cache effectiveness (hits, misses, evictions,
// invalidations, plans, size) and the admission gate's capacity, in-flight
// queries and queue depth. Scrape it with any Prometheus-compatible
// collector; the talignd smoke test in CI greps it directly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cs := s.cache.Stats()
	gs := s.gate.Stats()
	snap := s.catalog.Snapshot()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("talignd_queries_total", "Queries accepted (ad-hoc, prepared, streamed).", s.queries.Load())
	counter("talignd_errors_total", "Queries that ended in an error.", s.errors.Load())
	counter("talignd_query_cancels_total", "Queries aborted by context cancellation.", s.cancels.Load())
	counter("talignd_query_timeouts_total", "Queries aborted by the per-query deadline.", s.timeouts.Load())
	counter("talignd_resource_aborts_total", "Queries aborted by their resource budget (rows/bytes).", s.resourceAborts.Load())
	counter("talignd_panics_recovered_total", "Queries that died to a recovered executor panic (the process did not).", s.panics.Load())
	counter("talignd_streams_total", "Wire-level streaming responses started.", s.streams.Load())
	counter("talignd_rows_streamed_total", "Rows delivered through streaming cursors.", s.rowsStreamed.Load())
	gauge("talignd_frame_conns_open", "Open frame connections (GET /frames).", int(s.frameConns.Load()))
	counter("talignd_frame_conns_total", "Frame connections upgraded.", s.frameConnsTotal.Load())
	counter("talignd_exec_cancel_observed_total", "Operator batch loops that observed a cancelled context (process-wide).", exec.CancelObserved())
	counter("talignd_exec_panics_recovered_total", "Panics recovered at executor boundaries (process-wide).", exec.PanicsRecovered())
	counter("talignd_exec_budget_aborts_total", "Budget trips observed at executor boundaries (process-wide).", exec.BudgetAborts())

	counter("talignd_segments_scanned_total", "Segments read by pruning-eligible scans (process-wide).", exec.SegmentsScanned())
	counter("talignd_segments_pruned_total", "Segments skipped by zone-map pruning (process-wide).", exec.SegmentsPruned())
	counter("talignd_storage_wal_appends_total", "WAL records durably appended (process-wide).", storage.WALAppends())
	counter("talignd_storage_wal_replayed_total", "WAL records replayed at store open (process-wide).", storage.WALReplayed())
	counter("talignd_storage_checkpoints_total", "Store checkpoints completed (process-wide).", storage.Checkpoints())
	counter("talignd_storage_segments_written_total", "Segment files written and synced (process-wide).", storage.SegmentsWritten())
	counter("talignd_storage_segments_loaded_total", "Segment files mapped and decoded (process-wide).", storage.SegmentsLoaded())

	counter("talignd_plan_cache_hits_total", "Plan cache hits.", cs.Hits)
	counter("talignd_plan_cache_misses_total", "Plan cache misses.", cs.Misses)
	counter("talignd_plan_cache_evictions_total", "Plan cache LRU evictions.", cs.Evictions)
	counter("talignd_plan_cache_invalidated_total", "Cached plans purged because a table they depend on changed.", cs.Invalidated)
	counter("talignd_plans_total", "Statements actually planned.", cs.Plans)
	counter("talignd_pipelines_built_total", "Streamed executions that built their executor tree.", s.pipelinesBuilt.Load())
	counter("talignd_pipelines_reused_total", "Streamed executions that re-opened a tree their plan kept.", s.pipelinesReused.Load())
	gauge("talignd_plan_cache_size", "Cached plans.", cs.Size)
	gauge("talignd_plan_cache_capacity", "Plan cache capacity.", cs.Capacity)

	gauge("talignd_gate_capacity", "Admission gate capacity in in-flight queries (0 = unlimited).", gs.Capacity)
	gauge("talignd_gate_in_flight_dop", "In-flight queries holding an admission-gate unit.", gs.InUse)
	gauge("talignd_gate_waiting", "Queries queued at the admission gate.", gs.Waiting)

	gauge("talignd_sessions", "Live sessions.", s.sess.count())
	gauge("talignd_catalog_tables", "Registered tables.", snap.Len())

	if s.dist != nil {
		for _, m := range s.dist.DistMetrics() {
			if m.Gauge {
				gauge(m.Name, m.Help, int(m.Value))
			} else {
				counter(m.Name, m.Help, m.Value)
			}
		}
	}

	draining := 0
	if s.Draining() {
		draining = 1
	}
	gauge("talignd_draining", "1 while the server is draining for shutdown (refusing new queries).", draining)
}
