// Command talignd is the long-lived temporal-alignment query server: it
// loads interval-timestamped relations from CSV files, then serves the
// temporal SQL dialect over HTTP/JSON with prepared statements, an LRU
// plan cache keyed on the catalog version, and an admission gate bounding
// the number of in-flight queries.
//
// Usage:
//
//	talignd [-addr :7411] [-cache n] [-max-dop n] [-timeout d]
//	        [-max-rows n] [-max-bytes n] [-drain d] [-demo]
//	        [-data dir] [-segment-rows n]
//	        [-role coordinator|worker] [-worker host:port,...]
//	        [-partition table=col,...] [name=file.csv ...]
//
// With -role, talignd forms a scatter-gather cluster: a worker is a full
// single-node server whose frame connections also take the
// coordinator's stage, unstage and analyze frames, and a coordinator
// hash-partitions loaded tables across the -worker list, each by its
// -partition column (default: its first column), sends query fragments
// over pooled frame connections and merges the shard streams — the client-facing protocol
// is byte-identical to a single node. See docs/API.md "Distributed
// deployment".
//
// With -data, talignd opens (or creates) a persistent data directory:
// tables created through "CREATE TABLE <name> FROM CSV '<path>'" are
// written as interval-partitioned columnar segments plus a WAL, and a
// restarted talignd warm-boots them — byte-identical results, zone maps
// ready for segment pruning — before serving. "DROP TABLE <name>"
// removes a table from the catalog and from disk. Without -data both
// statements still work but affect only the in-memory catalog.
//
// Endpoints:
//
//	POST /query         {"sql": "SELECT ...", "params": [...]}
//	                    {"session": "s1", "stmt": "q1", "params": [...]}
//	POST /query/stream  same body; chunked NDJSON frame stream (schema
//	                    frame, row-batch frames, trailing status frame);
//	                    client disconnect cancels the query
//	GET  /frames        Upgrade: talign-frames/1 — a frame connection (the
//	                    Go client's, a coordinator's): binary request
//	                    frames answered by frame streams, one at a time
//	POST /prepare       {"session": "s1", "name": "q1", "sql": "... $1 ..."}
//	GET  /explain       ?sql=... (or ?session=s1&stmt=q1)
//	GET  /healthz       liveness: 200 while the process runs
//	GET  /readyz        readiness: 200 while accepting queries, 503 with a
//	                    structured "unavailable" error while draining
//	GET  /stats         per-table ANALYZE statistics + plan-cache counters
//	GET  /metrics       Prometheus text-format counters (plan cache,
//	                    admission gate, cancellations, timeouts, budget
//	                    aborts, recovered panics, drain state)
//
// Lifecycle: -timeout arms a per-query deadline, -max-rows/-max-bytes a
// per-query resource budget (rows/bytes crossing operator boundaries).
// On SIGTERM or SIGINT the server drains instead of dying mid-stream: it
// stops admitting queries (new ones get the "unavailable" error code,
// /readyz turns 503), lets in-flight streams finish for up to -drain,
// then exits 0.
//
// Loaded tables are auto-analyzed at startup, so the planner's row
// estimates start from real statistics; "ANALYZE <table>" via POST /query
// refreshes them at any time.
//
// Example:
//
//	talignd -demo &
//	curl -s localhost:7411/query -d '{"sql": "SELECT * FROM r WHERE a >= $1", "params": [40]}'
//
// cmd/talign's -connect flag speaks this protocol as an interactive client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/distsql"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/storage"
)

func main() {
	addr := flag.String("addr", ":7411", "listen address")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "prepared-plan cache capacity")
	maxDOP := flag.Int("max-dop", 0, "in-flight queries admitted at once (0 = 4x CPUs)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-query row budget across operator boundaries (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "per-query byte budget across operator boundaries (0 = unlimited)")
	drain := flag.Duration("drain", 15*time.Second, "shutdown drain deadline for in-flight queries")
	demo := flag.Bool("demo", false, "preload the paper's hotel example relations r and p")
	dataDir := flag.String("data", "", "data directory for persistent tables (empty = memory-only)")
	segRows := flag.Int("segment-rows", 0, "rows per on-disk segment (0 = default)")
	role := flag.String("role", "", "cluster role: coordinator, worker, or empty for single-node")
	workers := flag.String("worker", "", "coordinator worker list: host:port,host:port,...")
	partition := flag.String("partition", "", "coordinator partition overrides: table=col,table=col,...")
	flag.Parse()

	flags := plan.DefaultFlags()
	if *maxDOP == 0 {
		*maxDOP = 4 * runtime.NumCPU()
	}

	srv := server.New(server.Config{
		Flags:     flags,
		CacheSize: *cacheSize,
		MaxDOP:    *maxDOP,
		Timeout:   *timeout,
		MaxRows:   *maxRows,
		MaxBytes:  *maxBytes,
	})
	var store *storage.Store
	if *dataDir != "" {
		var err error
		store, err = storage.Open(*dataDir)
		if err != nil {
			fatalf("opening data directory %s: %v", *dataDir, err)
		}
		if *segRows > 0 {
			store.SegmentRows = *segRows
		}
		n, err := srv.UseStore(store)
		if err != nil {
			fatalf("loading persisted tables from %s: %v", *dataDir, err)
		}
		fmt.Printf("data directory %s: %d persisted table(s) loaded\n", *dataDir, n)
	}
	var coord *distsql.Coordinator
	switch *role {
	case "", "worker":
		if *workers != "" {
			fatalf("-worker requires -role coordinator")
		}
	case "coordinator":
		topo, partMap, err := clusterConfig(*workers, *partition)
		if err != nil {
			fatalf("%v", err)
		}
		coord = distsql.New(srv, topo, flags, partMap)
		coord.Attach()
		fmt.Printf("coordinator: %d worker(s), topology %s\n", len(topo.Workers), topo.Version())
	default:
		fatalf("-role must be coordinator, worker or empty, got %q", *role)
	}

	register := func(name string, rel *relation.Relation) {
		if coord != nil {
			if err := coord.DistributeTable(context.Background(), name, rel); err != nil {
				fatalf("distributing %s: %v", name, err)
			}
			fmt.Printf("distributed %s: %d tuples across %d worker(s)\n", name, rel.Len(), len(coord.Topology().Workers))
			return
		}
		srv.Catalog().Register(name, rel)
		fmt.Printf("loaded %s: %d tuples, schema %s\n", name, rel.Len(), rel.Schema)
	}
	for _, arg := range flag.Args() {
		parts := strings.SplitN(arg, "=", 2)
		if len(parts) != 2 {
			fatalf("argument %q is not name=file.csv", arg)
		}
		rel, err := csvio.ReadFile(parts[1])
		if err != nil {
			fatalf("loading %s: %v", parts[1], err)
		}
		register(parts[0], rel)
	}
	if *demo {
		r, p := dataset.Demo()
		register("r", r)
		register("p", p)
		fmt.Println("demo relations loaded: r(n), p(a, mn, mx) — months since 2012/1")
	}
	if coord != nil {
		// Workers got the data; give their optimizers statistics too.
		if err := coord.AnalyzeWorkers(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "talignd: worker analyze broadcast: %v\n", err)
		}
	}
	if n := srv.AnalyzeAll(); n > 0 {
		fmt.Printf("auto-analyzed %d table(s)\n", n)
	}

	handler := srv.Handler()
	if *role == "worker" {
		handler = distsql.Handler(srv)
		fmt.Println("worker: frame connections take the coordinator's stage, unstage and analyze frames")
	}
	fmt.Printf("talignd listening on %s (cache=%d, max in-flight queries=%d)\n",
		*addr, *cacheSize, *maxDOP)
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		// ListenAndServe never returns nil; without a Shutdown in flight
		// any return is fatal (bad address, closed listener).
		fatalf("talignd: %v", err)
	case s := <-sig:
		// Graceful drain: stop admitting queries (new ones are refused
		// with the "unavailable" code and /readyz flips to 503), then let
		// in-flight streams finish under the drain deadline. A clean
		// drain — or one where only stuck streams remain past the
		// deadline — exits 0 so orchestrators see a voluntary shutdown.
		fmt.Printf("talignd: received %v, draining (deadline %s)\n", s, *drain)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Keep the listener up while in-flight queries finish: load
		// balancers need to reach /readyz to observe the 503 flip, and
		// monitoring keeps /healthz and /metrics. Only once the gate
		// quiesces (or the deadline passes) does the listener close.
	quiesce:
		for srv.GateStats().InUse > 0 {
			select {
			case <-ctx.Done():
				break quiesce
			case <-time.After(50 * time.Millisecond):
			}
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "talignd: drain deadline exceeded, closing remaining connections: %v\n", err)
			httpSrv.Close()
		} else {
			fmt.Println("talignd: drained cleanly")
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("talignd: %v", err)
		}
		if store != nil {
			// Fold any WAL tail into the manifest so the next start replays
			// nothing; failures leave the WAL in place, which the next
			// open replays — durability never depends on this step.
			if err := store.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "talignd: checkpoint on shutdown: %v\n", err)
			}
			store.Close()
		}
	}
}

// clusterConfig resolves the coordinator's topology and partition
// overrides from the -worker and -partition flags.
func clusterConfig(workers, partition string) (distsql.Topology, map[string]string, error) {
	if workers == "" {
		return distsql.Topology{}, nil, fmt.Errorf("-role coordinator requires -worker")
	}
	topo, err := distsql.ParseWorkers(workers)
	if err != nil {
		return distsql.Topology{}, nil, err
	}
	part, err := parsePartition(partition)
	if err != nil {
		return distsql.Topology{}, nil, err
	}
	return topo, part, nil
}

// parsePartition parses "table=col,table=col" overrides.
func parsePartition(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("-partition entry %q is not table=col", kv)
		}
		out[strings.ToLower(parts[0])] = strings.ToLower(parts[1])
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
