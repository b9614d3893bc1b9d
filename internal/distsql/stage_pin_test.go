package distsql

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"talign/internal/colbatch"
	"talign/internal/dataset"
	"talign/internal/interval"
	"talign/internal/plan"
	"talign/internal/raceflag"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqltest"
	"talign/internal/tuple"
	"talign/internal/value"
	"talign/internal/wire"
)

// TestStagedShardsOwnTheirBuffers: two shards staged back to back on one
// pooled frame connection read back, through exec fragments, exactly as
// they were staged. A worker's frame reader reads one frame ahead into a
// reused buffer, so a staged shard aliasing it would come back with the
// bytes of the frames after it.
func TestStagedShardsOwnTheirBuffers(t *testing.T) {
	rels := map[string]*relation.Relation{
		"c": dataset.Incumben(dataset.IncumbenConfig{Rows: 500, Seed: 3}),
		"d": dataset.Incumben(dataset.IncumbenConfig{Rows: 700, Seed: 4}),
	}
	cl := newCluster(t, 1, nil)
	ctx := context.Background()
	for _, name := range []string{"c", "d"} {
		if err := cl.coord.DistributeTable(ctx, name, rels[name]); err != nil {
			t.Fatal(err)
		}
	}
	single := singleNode(t, rels)
	for _, q := range []string{"SELECT * FROM c", "SELECT * FROM d"} {
		want, err := sqltest.Run(ctx, single, "", "", q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sqltest.Run(ctx, cl.csrv, "", "", q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "staged", q, got.Rel, want.Rel)
	}
	if n := metric(t, cl.wsrvs[0], "talignd_frame_conns_total"); n != 1 {
		t.Fatalf("the worker upgraded %d frame connections, want the one", n)
	}
}

// TestSlowStageWrite: the fragment deadline bounds the wait for a
// worker's answer once the request is written, not the writing: a shard
// larger than the socket buffers, which its worker starts reading only
// after several times the deadline, still stages.
func TestSlowStageWrite(t *testing.T) {
	const limit = 250 * time.Millisecond
	shard := colbatch.New(schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}))
	row := tuple.Tuple{Vals: make([]value.Value, 1)}
	for i := int64(0); i < 1<<19; i++ { // 12 MiB of frames
		row.Vals[0], row.T = value.NewInt(i), interval.New(i, i+1)
		shard.AppendTuple(row)
	}
	ack := encode(t, wire.Frame{Frame: wire.FrameStatus, RowCount: int64(shard.Len())})[0]
	slow := startNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.FrameProtocol+"\r\n\r\n")
		time.Sleep(4 * limit)
		dec := wire.NewDecoder(rw.Reader)
		for f, err := dec.Next(); err == nil; f, err = dec.Next() {
			if f.Frame == wire.FrameStatus {
				conn.Write(ack)
			}
		}
	}))
	p := wire.NewPool(slow.URL)
	defer p.Close()
	conn, f, err := p.RoundTrip(context.Background(), limit, stageFrames("c", shard)...)
	if err != nil || f.Frame != wire.FrameStatus || f.RowCount != int64(shard.Len()) {
		t.Fatalf("staging a shard the worker reads late: %+v, %v", f, err)
	}
	conn.Close()
}

// TestStageAllocPin: a worker that is staged a shard keeps the decoded
// rows frame as the shard's relation — a batch-born one — and allocates
// little beyond the frame's own buffer. With a tuple and a value slab
// built for every staged row this read 5.35 × the frame bytes.
func TestStageAllocPin(t *testing.T) {
	const n = 8000
	shard := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 3}).Columnar()

	// The stage frames exactly as a coordinator writes them.
	var body bytes.Buffer
	fw := wire.NewWriter(&body, wire.MediaBatch)
	for _, f := range stageFrames("c", shard) {
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}

	srv := server.New(server.Config{Flags: plan.DefaultFlags()})
	worker := startNode(t, Handler(srv))
	conn, err := net.Dial("tcp", worker.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /frames HTTP/1.1\r\nHost: w0\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", wire.FrameProtocol)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	dec := wire.NewDecoder(br)
	stage := func() {
		if _, err := conn.Write(body.Bytes()); err != nil {
			t.Fatal(err)
		}
		if f, err := dec.Next(); err != nil || f.Frame != wire.FrameStatus || f.RowCount != n {
			t.Fatalf("stage answered %+v, %v", f, err)
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
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(body.Len())
	t.Logf("staging %d rows, %d frame bytes: %.2f × the frame bytes allocated", n, body.Len(), ratio)
	if ratio > 1.25 && !raceflag.Enabled {
		t.Errorf("a worker staging %d frame bytes allocates %.2f times that, want at most 1.25", body.Len(), ratio)
	}
}
