package distsql

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"talign/internal/dataset"
	"talign/internal/plan"
	"talign/internal/raceflag"
	"talign/internal/server"
	"talign/internal/wire"
)

// TestStageAllocPin: a worker that is staged a shard keeps the decoded
// frame as the shard's relation — a batch-born one — and allocates little
// beyond the frame's own buffer. With a tuple and a value slab built for
// every staged row this read 5.35 × the frame bytes.
func TestStageAllocPin(t *testing.T) {
	const n = 8000
	shard := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 3}).Columnar()

	// The stage request exactly as a coordinator sends it.
	var body []byte
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ = io.ReadAll(r.Body)
		writeAck(w, wire.FragmentAck{OK: true})
	}))
	defer sink.Close()
	if err := newWorkerClient().stage(context.Background(), Worker{Name: "w0", URL: sink.URL}, "c", shard); err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{Flags: plan.DefaultFlags()})
	worker := Handler(srv)
	stage := func() {
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fragment", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("stage: %d %s", rec.Code, rec.Body)
		}
	}
	stage()
	if rel, ok := srv.Catalog().Snapshot().Lookup("c"); !ok || rel.Len() != n || rel.Tuples != nil {
		t.Fatalf("staged shard: found=%v, %d rows, %d tuples", ok, rel.Len(), len(rel.Tuples))
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stage()
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(body))
	t.Logf("staging %d rows, %d frame bytes: %.2f × the frame bytes allocated", n, len(body), ratio)
	if ratio > 1.25 && !raceflag.Enabled {
		t.Errorf("a worker staging %d frame bytes allocates %.2f times that, want at most 1.25", len(body), ratio)
	}
}
