package distsql

import "talign/internal/server"

// DistMetrics implements server.Distributor's metrics hook: the
// coordinator's counters render into the server's /metrics endpoint
// alongside the single-node ones.
func (c *Coordinator) DistMetrics() []server.DistMetric {
	cs := c.cache.Stats()
	retries, read, written := c.client.poolStats()
	return []server.DistMetric{
		{Name: "talignd_dist_workers", Help: "Workers in the static cluster topology.", Gauge: true, Value: uint64(len(c.topo.Workers))},
		{Name: "talignd_dist_queries_total", Help: "Statements executed through the distributed planner.", Value: c.queries.Load()},
		{Name: "talignd_dist_plan_cache_hits_total", Help: "Distributed plan-cache hits.", Value: cs.Hits},
		{Name: "talignd_dist_plan_cache_misses_total", Help: "Distributed plan-cache misses.", Value: cs.Misses},
		{Name: "talignd_dist_plan_cache_invalidated_total", Help: "Distributed plans purged because a table they depend on was restaged, dropped or repartitioned.", Value: cs.Invalidated},
		{Name: "talignd_fragments_total", Help: "Fragment operations dispatched to workers.", Value: c.client.fragments.Load()},
		{Name: "talignd_fragment_retries_total", Help: "Fragment dispatches retried after transport failures, 503s or unavailable answers.", Value: retries},
		{Name: "talignd_worker_unreachable_total", Help: "Fragment dispatches abandoned after retry exhaustion.", Value: c.client.unreachable.Load()},
		{Name: "talignd_dist_rows_in_total", Help: "Rows decoded off worker result streams.", Value: c.client.rowsIn.Load()},
		{Name: "talignd_dist_rows_out_total", Help: "Rows staged out to workers (table loads and repartitioning).", Value: c.client.rowsOut.Load()},
		{Name: "talignd_dist_bytes_in_total", Help: "Frame bytes read off worker connections.", Value: read},
		{Name: "talignd_dist_frame_buffers_total", Help: "Frame buffers allocated decoding worker streams (a stream reuses a small ring of them).", Value: c.client.frameBufs.Load()},
		{Name: "talignd_dist_bytes_out_total", Help: "Frame bytes written to worker connections.", Value: written},
		{Name: "talignd_dist_scatter_total", Help: "Queries executed by colocated scatter.", Value: c.scatters.Load()},
		{Name: "talignd_dist_scatter_final_total", Help: "Queries executed by scatter plus a coordinator final stage.", Value: c.scatterFinals.Load()},
		{Name: "talignd_dist_partial_agg_total", Help: "Queries executed by the partial/final aggregate split.", Value: c.partialAggs.Load()},
		{Name: "talignd_dist_repartition_total", Help: "Executions that staged a coordinator-mediated repartition.", Value: c.repartitions.Load()},
		{Name: "talignd_dist_gather_all_total", Help: "Queries executed by the gather-all fallback.", Value: c.gatherAlls.Load()},
	}
}
