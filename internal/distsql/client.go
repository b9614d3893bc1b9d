package distsql

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"talign/internal/backoff"
	"talign/internal/colbatch"
	"talign/internal/exec"
	"talign/internal/faultinject"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/wire"
)

// fragmentRetries is how many times an idempotent fragment dispatch is
// re-issued beyond the first attempt. Every fragment operation is
// idempotent — exec is read-only and retried only before any frame is
// consumed, stage/unstage are last-write-wins registrations — so a
// retry can at worst repeat work, never duplicate an effect.
const fragmentRetries = 2

// stageFrameRows caps the rows of one staged rows frame, keeping every
// frame of a large shard far below wire.MaxFramePayload.
const stageFrameRows = 1 << 16

// workerClient issues fragment operations against the worker fleet with
// the shared backoff curve, classifying exhausted retries as structured
// "unavailable" errors naming the worker.
type workerClient struct {
	http    *http.Client
	retries int

	fragments   atomic.Uint64 // fragment operations dispatched
	retried     atomic.Uint64 // dispatch retries after transport failures/503s
	unreachable atomic.Uint64 // workers given up on after retry exhaustion
	rowsIn      atomic.Uint64 // rows decoded off worker streams
	bytesIn     atomic.Uint64 // response-body bytes read off worker streams
	frameBufs   atomic.Uint64 // frame buffers allocated decoding worker streams
	rowsOut     atomic.Uint64 // rows staged out to workers
	bytesOut    atomic.Uint64 // request-body bytes staged out to workers
}

func newWorkerClient() *workerClient {
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	return &workerClient{
		http: &http.Client{Transport: &http.Transport{
			DialContext:           dialer.DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: 60 * time.Second,
			MaxIdleConnsPerHost:   16,
		}},
		retries: fragmentRetries,
	}
}

// unavailable wraps a dispatch or stream failure as the structured error
// the satellite contract requires: code "unavailable", naming the worker.
func unavailable(w Worker, what string, err error) error {
	return &sqlish.Error{
		Code: sqlish.ErrUnavailable,
		Msg:  fmt.Sprintf("worker %s (%s) %s: %v", w.Name, w.URL, what, err),
		Pos:  -1,
	}
}

// post sends one encoded fragment request — the JSON request object,
// followed by the staged shard's batch frames when there is one —
// retrying transport failures and 503s (a draining or restarting worker)
// with exponential backoff. The body is replayed per attempt; responses
// with structured error bodies are decoded and returned as their coded
// errors.
func (c *workerClient) post(ctx context.Context, w Worker, data []byte) (*http.Response, error) {
	c.fragments.Add(1)
	c.bytesOut.Add(uint64(len(data)))
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := faultinject.Hit("distsql.dispatch"); err != nil {
			lastErr = err
		} else {
			hreq, herr := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+"/fragment", bytes.NewReader(data))
			if herr != nil {
				return nil, herr
			}
			hreq.Header.Set("Content-Type", "application/json")
			resp, rerr := c.http.Do(hreq)
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return resp, nil
			}
			if rerr != nil {
				lastErr = rerr
			} else {
				lastErr = decodeHTTPError(resp)
				if resp.StatusCode != http.StatusServiceUnavailable {
					// A structured non-503 failure (parse error, resource abort)
					// is the query's real outcome, not a reachability problem.
					return nil, lastErr
				}
			}
		}
		if attempt >= c.retries || ctx.Err() != nil {
			c.unreachable.Add(1)
			return nil, unavailable(w, "unreachable", lastErr)
		}
		c.retried.Add(1)
		select {
		case <-time.After(backoff.Default(attempt)):
		case <-ctx.Done():
			c.unreachable.Add(1)
			return nil, unavailable(w, "unreachable", lastErr)
		}
	}
}

// decodeHTTPError converts a non-200 fragment response into its
// structured error (or a plain description when the body is not ours).
func decodeHTTPError(resp *http.Response) error {
	defer resp.Body.Close()
	var out struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err == nil && out.Error != nil {
		return &sqlish.Error{Code: out.Error.Code, Msg: out.Error.Message, Pos: -1, Line: out.Error.Line, Col: out.Error.Col}
	}
	return fmt.Errorf("worker returned %s", resp.Status)
}

// ack performs one non-exec fragment operation (unstage, analyze) and
// decodes its acknowledgement.
func (c *workerClient) ack(ctx context.Context, w Worker, req *wire.FragmentRequest) (wire.FragmentAck, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return wire.FragmentAck{}, err
	}
	return c.ackBody(ctx, w, req.Op, data)
}

// ackBody posts an encoded non-exec request and decodes its
// acknowledgement.
func (c *workerClient) ackBody(ctx context.Context, w Worker, op string, body []byte) (wire.FragmentAck, error) {
	resp, err := c.post(ctx, w, body)
	if err != nil {
		return wire.FragmentAck{}, err
	}
	defer resp.Body.Close()
	var out wire.FragmentAck
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("distsql: bad %s ack from %s: %v", op, w.Name, err)
	}
	return out, nil
}

// stage registers the dense batch shard under name on worker w. The
// shard travels as batch frames behind the request object: a schema
// frame, rows frames of at most stageFrameRows rows (one even when the
// shard is empty — it types the columns) and the status frame.
func (c *workerClient) stage(ctx context.Context, w Worker, name string, shard *colbatch.Batch) error {
	head, err := json.Marshal(wire.FragmentRequest{Op: wire.FragmentStage, Name: name})
	if err != nil {
		return err
	}
	// Sized to about the shard's encoded length.
	body := append(make([]byte, 0, len(head)+8*shard.Len()*(3+len(shard.Cols))+512), head...)
	write := func(f wire.Frame) {
		if err == nil {
			body, err = wire.AppendFrame(body, f)
		}
	}
	cols, types := shard.Schema.ResultColumns()
	write(wire.Frame{Frame: wire.FrameSchema, Columns: cols, Types: types})
	var view colbatch.Batch
	for lo := 0; lo < shard.Len() || lo == 0; lo += stageFrameRows {
		shard.SliceInto(&view, lo, min(lo+stageFrameRows, shard.Len()))
		write(wire.Frame{Frame: wire.FrameRows, Batch: &view})
	}
	write(wire.Frame{Frame: wire.FrameStatus, RowCount: int64(shard.Len())})
	if err != nil {
		return fmt.Errorf("distsql: encoding shard %s for %s: %v", name, w.Name, err)
	}
	c.rowsOut.Add(uint64(shard.Len()))
	_, err = c.ackBody(ctx, w, wire.FragmentStage, body)
	return err
}

// countingReader counts bytes read off a worker response body.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// workerStream is one worker's in-flight exec fragment: a goroutine
// decodes its batch frames onto a bounded channel, cycling through a
// ring of cap(ch)+2 frame buffers: at most one batch is with the
// consumer (valid until its next pull), cap(ch) wait in the channel and
// one is being decoded, so a slot comes round only after its batch is
// dead, with the channel as the only synchronization. A stream drained
// to its end leaves its ring in frameRings for the next one. err is set
// before the channel closes (read it only after the close).
type workerStream struct {
	worker Worker
	ch     chan *colbatch.Batch
	ring   [][]byte
	err    error
}

// frameRings holds the rings ([][]byte) of streams drained to their end.
var frameRings sync.Pool

// startExec dispatches an exec fragment to w and streams its decoded
// batches. The stream ends with a closed channel; a stream that is
// truncated (a worker killed mid-query), corrupt, or whose status frame
// disagrees with the rows received surfaces as a structured
// "unavailable" error naming the worker.
func (c *workerClient) startExec(ctx context.Context, w Worker, sql string, params []any, batch int) *workerStream {
	// A few batches of slack let a worker run ahead of the merge, which
	// drains the workers in order.
	ws := &workerStream{worker: w, ch: make(chan *colbatch.Batch, 4)}
	if ws.ring, _ = frameRings.Get().([][]byte); ws.ring == nil {
		ws.ring = make([][]byte, cap(ws.ch)+2)
	}
	go func() {
		defer close(ws.ch)
		defer func() {
			// A panic here would otherwise kill the coordinator process.
			if perr := exec.Recovered("distsql.workerStream", recover()); perr != nil {
				ws.err = perr
			}
		}()
		data, err := json.Marshal(wire.FragmentRequest{Op: wire.FragmentExec, SQL: sql, Params: params, Batch: batch})
		if err != nil {
			ws.err = err
			return
		}
		resp, err := c.post(ctx, w, data)
		if err != nil {
			ws.err = err
			return
		}
		defer resp.Body.Close()
		dec := wire.NewDecoder(&countingReader{r: resp.Body, n: &c.bytesIn})
		dec.ReuseBuffers(ws.ring)
		defer func() { c.frameBufs.Add(uint64(dec.BufferAllocs())) }()
		for {
			f, err := dec.Next()
			if err != nil {
				what := "stream truncated"
				if errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrVersion) {
					what = "sent a bad stream"
				}
				ws.err = unavailable(w, what, err)
				return
			}
			switch f.Frame {
			case wire.FrameSchema:
			case wire.FrameRows:
				c.rowsIn.Add(uint64(f.Batch.Len()))
				select {
				case ws.ch <- f.Batch:
				case <-ctx.Done():
					ws.err = ctx.Err()
					return
				}
			case wire.FrameStatus:
				return
			case wire.FrameError:
				ws.err = &sqlish.Error{Code: f.Error.Code, Msg: fmt.Sprintf("worker %s: %s", w.Name, f.Error.Message), Pos: -1}
				return
			default:
				ws.err = fmt.Errorf("distsql: worker %s: unexpected %q frame", w.Name, f.Frame)
				return
			}
		}
	}()
	return ws
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
		// The stream's goroutine has exited and the caller is done with
		// its last batch: nothing reads or writes the ring any more.
		frameRings.Put(ws.ring)
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
// request; the decode goroutines exit through their context checks and
// closed response bodies.
func (m *mergeSource) Close() error {
	if m.done {
		return nil
	}
	m.done = true
	if m.cancel != nil {
		m.cancel()
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
