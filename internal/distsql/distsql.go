// Package distsql turns talignd into a sharded cluster: a coordinator
// hash-partitions tables by alignment key across N worker talignd
// nodes, splits each statement's plan at a cut — every worker runs the
// statement itself up to the cut on its shard, the coordinator runs its
// own plan above the cut over the gathered answers — executes the
// fragments over pooled frame connections to the workers (the same
// wire.Pool the Go client speaks: exec fragments are query frames,
// staging and statistics the worker-only stage, unstage and analyze
// frames), and merges the worker streams back into the ordinary client
// protocol — clients cannot tell a coordinator from a single node.
//
// Everything that moves between nodes moves as wire batch frames —
// colbatch.Batch column regions, never JSON rows: exec fragments answer
// in them, staged shards travel in them, and the merge, gather and
// repartition paths pass decoded batches along, so a streamed scatter
// result goes from a worker's frame to the client's frame without a
// tuple being built. Rows appear only where a relation is registered
// for a local plan (a staged shard on a worker, the gathered answers of
// a final stage or a gather-all input on the coordinator).
//
// The planner reads the cheapest correct strategy off the coordinator's
// own plan of the statement (sqlish.Prepared.Place):
//
//   - scatter: the plan is colocated under the current partitioning
//     (every join, Φ and N in it is bridged by an equi-condition on the
//     partition columns) and every grouping in it is pinned to one
//     shard, so workers run the whole statement and the coordinator
//     concatenates the streams.
//   - scatter+final: workers run the plan's body, the coordinator its
//     ORDER BY/LIMIT over the gathered rows, after a global
//     DISTINCT/ABSORB pass when dedup groups are not pinned to one shard.
//   - partial aggregate: workers run the plan up to its aggregation
//     (per-shard COUNT/SUM/MIN/MAX partials), the coordinator
//     re-aggregates (COUNT→SUM and friends) and runs the HAVING, ORDER
//     BY and LIMIT of its own plan.
//   - repartition: a table whose required alignment key differs from its
//     current partition column is gathered, re-hashed on the required
//     key and staged back to the workers under a temporary name
//     (coordinator-mediated shuffle), then the query scatters. The
//     fragment names the temp for the table; a worker binds it per
//     execution into the plan it cached for the statement over its own
//     tables, so a repartitioned fragment is planned once per worker
//     and re-opens an idle pipeline like any other.
//   - gather-all: the universal fallback (WITH, set operations, a LIMIT
//     below the cut, AVG, non-colocatable joins) — shards are gathered
//     and the original statement runs on the coordinator.
//
// Correctness leans on the paper's key property: temporal alignment
// group construction only ever combines tuples that agree on the
// alignment key, so hash partitioning by that key makes shard-local
// ALIGN/NORMALIZE exact. Every strategy is validated against the
// single-node engine by the differential tests in this package.
package distsql

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"

	"talign/internal/server"
)

// Worker is one worker node in the static cluster topology.
type Worker struct {
	// Name identifies the worker in errors and metrics (w0, w1, ...).
	Name string `json:"name"`
	// URL is the worker's base HTTP URL.
	URL string `json:"url"`
}

// Topology is the static worker set a coordinator fans out to.
type Topology struct {
	// Workers lists the worker nodes; shard i of every table lives on
	// Workers[i].
	Workers []Worker
}

// Version fingerprints the worker set, for logs. A coordinator's topology
// is fixed for its lifetime, and its plan cache with it, so no cached
// plan can outlive a worker-set change.
func (t Topology) Version() string {
	h := fnv.New64a()
	for _, w := range t.Workers {
		h.Write([]byte(w.Name))
		h.Write([]byte{0})
		h.Write([]byte(w.URL))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%d-%x", len(t.Workers), h.Sum64())
}

// ParseWorkers builds a topology from the -worker flag's comma-separated
// host:port list; workers are named w0, w1, ... in list order.
func ParseWorkers(list string) (Topology, error) {
	var t Topology
	for i, hp := range strings.Split(list, ",") {
		hp = strings.TrimSpace(hp)
		if hp == "" {
			continue
		}
		url := hp
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		t.Workers = append(t.Workers, Worker{Name: fmt.Sprintf("w%d", i), URL: strings.TrimRight(url, "/")})
	}
	if len(t.Workers) == 0 {
		return t, fmt.Errorf("distsql: no workers in %q", list)
	}
	return t, nil
}

// Handler is a worker's HTTP surface: the full single-node one (health
// probes, /metrics, direct debugging queries), whose frame connections
// also take the coordinator's stage, unstage and analyze frames
// (server.EnableFragments). Exec fragments are ordinary query frames,
// answered in binary batch frames straight off the columnar executor.
func Handler(srv *server.Server) http.Handler {
	srv.EnableFragments()
	return srv.Handler()
}

// sortedKeys returns a map's keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
