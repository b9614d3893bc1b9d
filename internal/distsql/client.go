package distsql

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"talign/internal/colbatch"
	"talign/internal/exec"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/wire"
)

// The worker hop's fixed limits.
const (
	// fragmentRetries is how many times an idempotent fragment operation
	// is re-issued beyond the first attempt. Every fragment operation is
	// idempotent — exec is read-only and retried only before any frame is
	// consumed, stage/unstage are last-write-wins registrations — so a
	// retry can at worst repeat work, never duplicate an effect.
	fragmentRetries = 2
	// fragmentTimeout bounds the wait for a fragment's first answer frame
	// once its request frames are written; the writing (a staged shard) and
	// a streamed answer are then bounded by the context only.
	fragmentTimeout = 60 * time.Second
	// idlePerWorker is how many frame connections to each worker are kept
	// between fragments; concurrent fragments beyond it dial and upgrade
	// connections of their own.
	idlePerWorker = 16
	// streamDepth is how many batches a worker stream may run ahead of the
	// merge, which drains the workers in order.
	streamDepth = 4
	// stageFrameRows caps the rows of one staged rows frame, keeping every
	// frame of a large shard far below wire.MaxFramePayload.
	stageFrameRows = 1 << 16
)

// worker is one worker node and the coordinator's frame connections to it.
// Each connection decodes into its own ring of streamDepth+2 frame
// buffers: at most one batch of an exec stream is with the consumer
// (valid until its next pull), streamDepth wait in the stream's channel
// and one is being decoded, so a slot comes round only after its batch is
// dead.
type worker struct {
	Worker
	pool *wire.Pool
}

// workerClient issues fragment operations against the worker fleet over
// pooled frame connections, classifying transport failures as structured
// "unavailable" errors naming the worker.
type workerClient struct {
	workers []*worker

	fragments   atomic.Uint64 // fragment operations dispatched
	unreachable atomic.Uint64 // workers given up on after retry exhaustion
	rowsIn      atomic.Uint64 // rows decoded off worker streams
	frameBufs   atomic.Uint64 // frame buffers allocated decoding worker streams
	rowsOut     atomic.Uint64 // rows staged out to workers
}

func newWorkerClient(topo Topology) *workerClient {
	c := &workerClient{}
	for _, w := range topo.Workers {
		p := wire.NewPool(w.URL)
		p.Retries, p.MaxIdle, p.Ring, p.Site = fragmentRetries, idlePerWorker, streamDepth+2, "distsql.dispatch"
		c.workers = append(c.workers, &worker{Worker: w, pool: p})
	}
	return c
}

// poolStats sums the pools' retries and frame bytes read and written.
func (c *workerClient) poolStats() (retries, read, written uint64) {
	for _, w := range c.workers {
		retries += w.pool.Retried.Load()
		read += w.pool.Read.Load()
		written += w.pool.Written.Load()
	}
	return retries, read, written
}

// failed classifies a failed exchange with w: the query's cancellation,
// the worker's own error frame, or — as the structured "unavailable"
// error naming the worker — a worker unreachable after the retries or an
// answer cut short or malformed.
func (c *workerClient) failed(ctx context.Context, w *worker, err error) error {
	var we *wire.Error
	what := "stream truncated"
	switch {
	case ctx.Err() != nil:
		return ctx.Err()
	case errors.As(err, new(*wire.UnreachableError)):
		c.unreachable.Add(1)
		what = "unreachable"
	case errors.As(err, &we):
		return &sqlish.Error{Code: we.Code, Msg: fmt.Sprintf("worker %s: %s", w.Name, we.Message), Pos: -1, Line: we.Line, Col: we.Col}
	case errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrVersion):
		what = "sent a bad stream"
	}
	return &sqlish.Error{Code: sqlish.ErrUnavailable, Msg: fmt.Sprintf("worker %s (%s) %s: %v", w.Name, w.URL, what, err), Pos: -1}
}

// roundTrip dispatches one fragment operation — reqs are its request
// frame and the frames that follow it — and returns the connection with
// the first answer frame. An error frame is the worker's answer, not a
// transport failure: it fails the operation without a retry.
func (c *workerClient) roundTrip(ctx context.Context, w *worker, reqs ...wire.Frame) (*wire.Conn, wire.Frame, error) {
	c.fragments.Add(1)
	conn, first, err := w.pool.RoundTrip(ctx, fragmentTimeout, reqs...)
	if err == nil && first.Frame == wire.FrameError {
		conn.Close()
		err = first.Error
	}
	if err != nil {
		return nil, first, c.failed(ctx, w, err)
	}
	return conn, first, nil
}

// do performs one fragment operation answered by a status frame — stage,
// unstage, analyze — and returns the row count it reports.
func (c *workerClient) do(ctx context.Context, w *worker, reqs ...wire.Frame) (int64, error) {
	conn, f, err := c.roundTrip(ctx, w, reqs...)
	if err != nil {
		return 0, err
	}
	conn.Close()
	if f.Frame != wire.FrameStatus {
		return 0, c.failed(ctx, w, wire.Unexpected(f))
	}
	return f.RowCount, nil
}

// stageFrames are the frames that stage shard under name: the stage
// frame, then the shard as a schema frame, rows frames of at most
// stageFrameRows rows (one even when the shard is empty — it types the
// columns) and the status frame.
func stageFrames(name string, shard *colbatch.Batch) []wire.Frame {
	cols, types := shard.Schema.ResultColumns()
	frames := []wire.Frame{{Frame: wire.FrameStage, Table: name}, {Frame: wire.FrameSchema, Columns: cols, Types: types}}
	views := make([]colbatch.Batch, max(1, (shard.Len()+stageFrameRows-1)/stageFrameRows))
	for i := range views {
		shard.SliceInto(&views[i], i*stageFrameRows, min((i+1)*stageFrameRows, shard.Len()))
		frames = append(frames, wire.Frame{Frame: wire.FrameRows, Batch: &views[i]})
	}
	return append(frames, wire.Frame{Frame: wire.FrameStatus, RowCount: int64(shard.Len())})
}

// workerStream is one worker's in-flight exec fragment: a goroutine
// decodes its rows frames onto a bounded channel through the frame
// connection's ring (see worker). err is set before the channel closes;
// read it, and release conn, only after the close.
type workerStream struct {
	ch   chan *colbatch.Batch
	conn *wire.Conn
	err  error
}

// startExec dispatches an exec fragment — the query frame req — to w
// and streams the decoded batches. The stream ends with a closed channel; a stream that is
// truncated (a worker killed mid-query), corrupt, or whose status frame
// disagrees with the rows received surfaces as a structured
// "unavailable" error naming the worker.
func (c *workerClient) startExec(ctx context.Context, w *worker, req wire.Frame) *workerStream {
	ws := &workerStream{ch: make(chan *colbatch.Batch, streamDepth)}
	go func() {
		defer close(ws.ch)
		defer func() {
			// A panic here would otherwise kill the coordinator process.
			if perr := exec.Recovered("distsql.workerStream", recover()); perr != nil {
				ws.err = perr
			}
		}()
		conn, first, err := c.roundTrip(ctx, w, req)
		if ws.conn = conn; err == nil && first.Frame != wire.FrameSchema {
			err = c.failed(ctx, w, wire.Unexpected(first))
		}
		if err != nil {
			ws.err = err
			return
		}
		conn.NoDeadline()
		before := conn.BufferAllocs()
		defer func() { c.frameBufs.Add(uint64(conn.BufferAllocs() - before)) }()
		for {
			b, err := conn.NextBatch()
			if err != nil {
				ws.err = c.failed(ctx, w, err)
				return
			}
			if b == nil {
				return
			}
			c.rowsIn.Add(uint64(b.Len()))
			select {
			case ws.ch <- b:
			case <-ctx.Done():
				ws.err = ctx.Err()
				return
			}
		}
	}()
	return ws
}

// finish waits for the stream's goroutine to exit and releases its
// connection: back to the pool when the answer was read to its end. The
// caller must be done with every batch the stream handed out.
func (ws *workerStream) finish() {
	for range ws.ch {
	}
	if ws.conn != nil {
		ws.conn.Close()
		ws.conn = nil
	}
}

// mergeSource concatenates worker streams in worker order (deterministic
// merge; workers still produce in parallel, buffered by their channels).
// Batches pass through as decoded — no row is ever built here. It
// implements server.BatchSource.
type mergeSource struct {
	cancel  context.CancelFunc
	streams []*workerStream
	idx     int
	done    bool
}

// NextBatch returns the next batch from the current worker, advancing to
// the next worker when one finishes. A worker error is terminal for the
// whole merge.
func (m *mergeSource) NextBatch() (*colbatch.Batch, error) {
	if m.done {
		return nil, nil
	}
	for m.idx < len(m.streams) {
		ws := m.streams[m.idx]
		batch, ok := <-ws.ch
		if ok {
			return batch, nil
		}
		// The stream's goroutine has exited and the caller is done with its
		// last batch: nothing reads the connection's ring any more.
		ws.finish()
		if ws.err != nil {
			m.Close()
			return nil, ws.err
		}
		m.idx++
	}
	m.Close()
	return nil, nil
}

// Close cancels the fan-out context, tearing down every in-flight worker
// exchange, and waits for the decode goroutines to exit: a stream read to
// its end returns its connection to the pool, any other hangs up.
func (m *mergeSource) Close() error {
	if m.done {
		return nil
	}
	m.done = true
	if m.cancel != nil {
		m.cancel()
	}
	for _, ws := range m.streams[m.idx:] {
		ws.finish()
	}
	return nil
}

// gather drains a merge stream, handing every batch to each (the gather
// stage of the final-pass strategies and the repartitioning shuffle).
func gather(src *mergeSource, each func(*colbatch.Batch)) error {
	defer src.Close()
	for {
		b, err := src.NextBatch()
		if err != nil || b == nil {
			return err
		}
		each(b)
	}
}

// gatherInto drains a merge stream into one dense batch over sch.
func gatherInto(src *mergeSource, sch schema.Schema) (*colbatch.Batch, error) {
	img := colbatch.New(sch)
	err := gather(src, img.AppendBatch)
	return img, err
}
