package talign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"talign/internal/backoff"
	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/stats"
	"talign/internal/value"
	"talign/internal/wire"
)

// Client-side resilience defaults. Control requests (healthz, prepare)
// are small and bounded, so they get an overall per-request timeout; row
// streams can legitimately run for minutes, so their client bounds only
// the phases that must be fast — dialing, the TLS handshake, and the
// wait for response headers — never the body.
const (
	controlTimeout        = 10 * time.Second
	dialTimeout           = 5 * time.Second
	tlsHandshakeTimeout   = 5 * time.Second
	responseHeaderTimeout = 60 * time.Second
	defaultRetries        = 2 // retries beyond the first attempt
)

// remoteDB speaks talignd's wire protocol: prepared statements through
// POST /prepare and executions through the chunked frame stream of
// POST /query/stream, always asking for binary batch frames (an answer
// in any other media type is a bad stream). The request context rides on
// the HTTP request, so cancelling it tears the connection down and —
// through the server's request context — aborts the query server-side.
//
// Requests that fail before any response bytes arrive (a transport
// error, or a 503 from a draining server) are retried with exponential
// backoff and jitter; every request this backend issues is idempotent
// (the dialect is read-only and prepare is a pure registration), so a
// retry can at worst repeat work, never duplicate an effect.
type remoteDB struct {
	base    string
	batch   int           // batch= DSN option, sent with every query request
	timeout time.Duration // timeout= DSN option: client-side per-query deadline
	retry   int           // retry= DSN option: retries beyond the first attempt
	control *http.Client  // bounded end-to-end: healthz, prepare
	stream  *http.Client  // row streams: transport-phase timeouts only
	closed  atomic.Bool
}

// openRemote builds the wire backend for a talignd:// DSN and checks the
// server is reachable.
func openRemote(cfg dsnConfig) (backend, error) {
	dialer := &net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}
	transport := &http.Transport{
		DialContext:           dialer.DialContext,
		TLSHandshakeTimeout:   tlsHandshakeTimeout,
		ResponseHeaderTimeout: responseHeaderTimeout,
	}
	if cfg.timeout > 0 && cfg.timeout+10*time.Second > responseHeaderTimeout {
		// The server holds headers back while the query waits at the
		// admission gate, so the header timeout must outlast the query
		// deadline or slow-but-legal queries die as transport errors.
		transport.ResponseHeaderTimeout = cfg.timeout + 10*time.Second
	}
	retry := cfg.retry
	if retry < 0 {
		retry = defaultRetries
	}
	r := &remoteDB{
		base:    cfg.remote,
		batch:   cfg.batch,
		timeout: cfg.timeout,
		retry:   retry,
		control: &http.Client{Timeout: controlTimeout, Transport: transport},
		stream:  &http.Client{Transport: transport},
	}
	resp, err := r.retryDo(context.Background(), r.control, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, r.base+"/healthz", nil)
	})
	if err != nil {
		return nil, fmt.Errorf("talign: cannot reach talignd at %s: %v", cfg.remote, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("talign: talignd at %s: healthz returned %s", cfg.remote, resp.Status)
	}
	return r, nil
}

// retryDo issues the request up to r.retry+1 times, retrying transport
// failures and 503 responses (a draining or overloaded server) with
// exponential backoff plus jitter. mk builds a fresh request per attempt
// (request bodies are single-use).
func (r *remoteDB) retryDo(ctx context.Context, client *http.Client, mk func() (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req.WithContext(ctx))
		if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = httpErr(resp) // decodes the structured body and closes it
		}
		if attempt >= r.retry || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-time.After(backoff.Default(attempt)):
		case <-ctx.Done():
			return nil, lastErr
		}
	}
}

// wireRequest is the /query, /query/stream and /prepare body.
type wireRequest struct {
	Session string `json:"session,omitempty"`
	Name    string `json:"name,omitempty"`
	Stmt    string `json:"stmt,omitempty"`
	SQL     string `json:"sql,omitempty"`
	Params  []any  `json:"params,omitempty"`
	Batch   int    `json:"batch,omitempty"`
}

// post sends one JSON request; accept names the media type the caller
// reads the answer in.
func (r *remoteDB) post(ctx context.Context, client *http.Client, path, accept string, body wireRequest) (*http.Response, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("talign: DB is closed")
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return r.retryDo(ctx, client, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", accept)
		return req, nil
	})
}

// httpErr decodes a non-200 response's structured error body.
func httpErr(resp *http.Response) error {
	defer resp.Body.Close()
	var out struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err == nil && out.Error != nil {
		return out.Error
	}
	return fmt.Errorf("talign: server returned %s", resp.Status)
}

func (r *remoteDB) query(ctx context.Context, session, stmt, sql string, params []value.Value) (*Rows, error) {
	cells := make([]any, len(params))
	for i, p := range params {
		cells[i] = wire.Cell(p)
	}
	// The timeout= deadline covers the whole query — connection, server
	// execution, and reading the stream — and is released when the Rows
	// close. Retries happen before the first frame is consumed, so a
	// retried query never splices two executions' rows together.
	cancel := func() {}
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
	}
	resp, err := r.post(ctx, r.stream, "/query/stream", wire.MediaBatch, wireRequest{Session: session, Stmt: stmt, SQL: sql, Params: cells, Batch: r.batch})
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		return nil, httpErr(resp)
	}
	if media := resp.Header.Get("Content-Type"); media != wire.MediaBatch {
		cancel()
		resp.Body.Close()
		return nil, fmt.Errorf("talign: bad stream: server answered %q, not %s", media, wire.MediaBatch)
	}
	src := &remoteSource{body: resp.Body, dec: wire.NewDecoder(resp.Body, wire.MediaBatch), cancel: cancel}
	src.dec.ReuseBuffers(src.buf[:]) // the cursor is done with a batch before it asks for the next frame
	first, err := src.frame()
	if err != nil {
		src.Close()
		return nil, err
	}
	switch first.Frame {
	case wire.FrameError:
		src.Close()
		return nil, first.Error
	case wire.FramePlan:
		src.Close()
		return &Rows{plan: first.Plan, cacheHit: first.CacheHit}, nil
	case wire.FrameSchema:
		return &Rows{cols: first.Columns, types: first.Types, cacheHit: first.CacheHit, src: src}, nil
	}
	src.Close()
	return nil, fmt.Errorf("talign: bad stream: unexpected %q frame", first.Frame)
}

func (r *remoteDB) prepare(ctx context.Context, session, name, sql string) (stmtMeta, error) {
	resp, err := r.post(ctx, r.control, "/prepare", "application/json", wireRequest{Session: session, Name: name, SQL: sql})
	if err != nil {
		return stmtMeta{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return stmtMeta{}, httpErr(resp)
	}
	defer resp.Body.Close()
	var out struct {
		Params  int      `json:"params"`
		Columns []string `json:"columns"`
		Types   []string `json:"types"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return stmtMeta{}, fmt.Errorf("talign: bad prepare response: %v", err)
	}
	return stmtMeta{numParams: out.Params, columns: out.Columns, types: out.Types}, nil
}

func (r *remoteDB) register(string, *relation.Relation) error {
	return fmt.Errorf("talign: Register needs an embedded DB; load the catalog on the talignd side")
}

func (r *remoteDB) analyze(string) (*stats.Table, error) {
	return nil, fmt.Errorf("talign: Analyze needs an embedded DB; run the ANALYZE statement instead")
}

func (r *remoteDB) close() error {
	r.closed.Store(true)
	r.control.CloseIdleConnections()
	r.stream.CloseIdleConnections()
	return nil
}

// remoteSource adapts the frame stream to the Rows contract. A stream
// that ends without a status frame (server died, connection cut) is an
// error, never a silent truncation, and so is one whose status frame
// disagrees with the rows received. A rows frame's batch is handed to the
// cursor as decoded, laid over the decoder's one reused buffer.
type remoteSource struct {
	body   io.ReadCloser
	dec    *wire.Decoder
	cancel func()    // releases the timeout= deadline context, if any
	buf    [1][]byte // the decoder's one reused frame buffer
	closed bool
}

// frame reads the next frame, classifying stream defects: a truncated
// stream and a malformed one are the client's own structured errors,
// transport errors (cancellation included) pass through.
func (s *remoteSource) frame() (wire.Frame, error) {
	if err := faultinject.Hit("wire.decode"); err != nil {
		return wire.Frame{}, err
	}
	f, err := s.dec.Next()
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		err = fmt.Errorf("talign: stream truncated before status frame")
	case errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrVersion):
		err = fmt.Errorf("talign: bad stream: %v", err)
	}
	return f, err
}

func (s *remoteSource) NextBatch() (*colbatch.Batch, error) {
	f, err := s.frame()
	if err != nil {
		return nil, err
	}
	switch f.Frame {
	case wire.FrameRows:
		return f.Batch, nil
	case wire.FrameStatus:
		return nil, nil
	case wire.FrameError:
		return nil, f.Error
	}
	return nil, fmt.Errorf("talign: bad stream: unexpected %q frame", f.Frame)
}

func (s *remoteSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	// Closing the body mid-stream drops the connection; the server sees
	// the disconnect through its request context and cancels the query.
	return s.body.Close()
}
