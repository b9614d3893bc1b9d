package talign

import (
	"bufio"
	"cmp"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"talign/internal/backoff"
	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/stats"
	"talign/internal/value"
	"talign/internal/wire"
)

// The remote client's fixed limits. A statement's first answer frame
// (held back while the query waits at the server's admission gate) must
// arrive within firstFrameTimeout, unless timeout= bounds the statement.
const (
	dialTimeout         = 5 * time.Second
	tlsHandshakeTimeout = 5 * time.Second
	controlTimeout      = 10 * time.Second // the upgrade round trip, a prepare
	firstFrameTimeout   = 60 * time.Second
	maxIdleConns        = 2 // frame connections a DB keeps between statements
	defaultRetries      = 2 // retries beyond the first attempt
)

// remoteDB speaks to talignd over frame connections (GET /frames upgraded
// to wire.FrameProtocol): a statement is one query or prepare frame on a
// pooled connection. Dial and upgrade failures, 503s and "unavailable"
// first answers (a draining server) are retried with backoff and jitter
// under retry=, every request being idempotent (the dialect is read-only,
// prepare a pure registration); a request a pooled connection lost before
// its answer began (the server closed it while idle) is re-sent once on a
// fresh connection, outside that budget.
type remoteDB struct {
	base    string        // the server's URL, for messages
	addr    string        // host:port to dial
	tls     *tls.Config   // https:// DSNs
	batch   int           // batch= DSN option, sent with every query
	timeout time.Duration // timeout= DSN option: client-side per-statement deadline
	retry   int           // retry= DSN option: retries beyond the first attempt

	mu     sync.Mutex
	idle   []*wireConn // most recently used last
	closed bool
}

// openRemote builds the wire backend for a talignd:// DSN; its one round
// trip, a dial and upgrade, parks a connection for the first statement.
func openRemote(cfg dsnConfig) (backend, error) {
	u, _ := url.Parse(cfg.remote) // parseDSN built it from a parsed URL
	r := &remoteDB{base: cfg.remote, addr: u.Host, batch: cfg.batch, timeout: cfg.timeout, retry: cfg.retry}
	if r.retry < 0 {
		r.retry = defaultRetries
	}
	if u.Port() == "" {
		r.addr = net.JoinHostPort(u.Hostname(), u.Scheme) // the service name: port 80 or 443
	}
	if u.Scheme == "https" {
		r.tls = &tls.Config{ServerName: u.Hostname()}
	}
	var c *wireConn
	var unreachable bool
	err := r.withRetries(context.Background(), func() (bool, error) {
		var err error
		c, unreachable, err = r.dial(context.Background())
		return unreachable, err
	})
	if err != nil && unreachable {
		return nil, fmt.Errorf("talign: cannot reach talignd at %s: %v", cfg.remote, err)
	} else if err != nil {
		return nil, err
	}
	c.done = true // nothing is in flight on it: release parks it
	c.release()
	return r, nil
}

// withRetries runs try until it succeeds, fails for good or has used up
// the retry= budget, backing off between attempts.
func (r *remoteDB) withRetries(ctx context.Context, try func() (retry bool, err error)) error {
	for attempt := 0; ; attempt++ {
		retry, err := try()
		if err == nil || !retry || attempt >= r.retry || ctx.Err() != nil {
			return err
		}
		select {
		case <-time.After(backoff.Default(attempt)):
		case <-ctx.Done():
			return err
		}
	}
}

// dial opens a frame connection: TCP (TLS for https:// DSNs) and the
// upgrade. unreachable reports a failure worth retrying: no connection,
// or a 503.
func (r *remoteDB) dial(ctx context.Context) (c *wireConn, unreachable bool, err error) {
	nc, err := (&net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}).DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return nil, true, err
	}
	if r.tls != nil {
		tc := tls.Client(nc, r.tls)
		hctx, cancel := context.WithTimeout(ctx, tlsHandshakeTimeout)
		err, nc = tc.HandshakeContext(hctx), tc
		cancel()
		if err != nil {
			nc.Close()
			return nil, true, err
		}
	}
	c, br := &wireConn{db: r, nc: nc}, bufio.NewReader(nc)
	nc.SetDeadline(time.Now().Add(controlTimeout))
	var resp *http.Response
	_, err = fmt.Fprintf(nc, "GET /frames HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", r.addr, wire.FrameProtocol)
	if err == nil {
		resp, err = http.ReadResponse(br, nil)
	}
	switch {
	case err != nil:
		unreachable = true
	case resp.StatusCode == http.StatusNotFound:
		err = fmt.Errorf("talign: talignd at %s does not speak frame connections", r.base)
	case resp.StatusCode >= http.StatusBadRequest:
		unreachable, err = resp.StatusCode == http.StatusServiceUnavailable, httpErr(resp)
	case resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), wire.FrameProtocol):
		err = fmt.Errorf("talign: bad stream: talignd at %s answered the upgrade with %s (Upgrade: %q), not 101", r.base, resp.Status, resp.Header.Get("Upgrade"))
	}
	if err != nil {
		nc.Close()
		return nil, unreachable, err
	}
	c.fw, c.dec = wire.NewWriter(nc, wire.MediaBatch), wire.NewDecoder(br)
	c.dec.ReuseBuffers(c.ring[:]) // the cursor is done with a batch before it asks for the next frame
	return c, false, nil
}

// httpErr decodes a refused upgrade's structured error body.
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

// roundTrip sends req on the most recently used idle connection, or a
// new one, and reads its first answer frame, retrying as remoteDB
// describes. The caller releases the connection.
func (r *remoteDB) roundTrip(ctx context.Context, req *wire.Frame, limit time.Duration) (*wireConn, wire.Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, wire.Frame{}, err
	}
	var c *wireConn
	var first wire.Frame
	err := r.withRetries(ctx, func() (retry bool, err error) {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return false, fmt.Errorf("talign: DB is closed")
		}
		if n := len(r.idle); n > 0 {
			c, r.idle = r.idle[n-1], r.idle[:n-1]
		}
		r.mu.Unlock()
		stale := false
		if c != nil {
			if first, stale, err = c.send(ctx, req, limit); stale {
				c.release()
				c = nil
			}
		}
		if c == nil {
			if c, retry, err = r.dial(ctx); err != nil {
				return retry, err
			}
			first, _, err = c.send(ctx, req, limit)
		}
		if err == nil && first.Frame == wire.FrameError && first.Error.Code == sqlish.ErrUnavailable {
			c.done, retry, err = false, true, first.Error // a draining server refuses and hangs up
		}
		if err != nil {
			c.release()
			c = nil
		}
		return retry, err
	})
	return c, first, err
}

func (r *remoteDB) query(ctx context.Context, session, stmt, sql string, params []value.Value) (*Rows, error) {
	req := wire.Frame{Frame: wire.FrameQuery, Session: session, Stmt: stmt, SQL: sql, Params: params, BatchSize: r.batch}
	c, first, err := r.roundTrip(ctx, &req, cmp.Or(r.timeout, firstFrameTimeout))
	if err != nil {
		return nil, err
	}
	switch first.Frame {
	case wire.FrameSchema:
		if r.timeout == 0 {
			// Rows may take minutes to arrive; only timeout= bounds them.
			c.nc.SetDeadline(time.Time{})
			if c.stop != nil && ctx.Err() != nil {
				c.interrupt() // a cancellation the reset overwrote
			}
		}
		return &Rows{cols: first.Columns, types: first.Types, cacheHit: first.CacheHit, src: c}, nil
	case wire.FramePlan:
		f, err := c.next()
		c.release()
		if err == nil && f.Frame != wire.FrameStatus {
			err = unexpected(f)
		}
		if err != nil {
			return nil, err
		}
		return &Rows{plan: first.Plan, cacheHit: first.CacheHit}, nil
	}
	c.release()
	return nil, unexpected(first)
}

// unexpected is the error of an answer frame out of place.
func unexpected(f wire.Frame) error {
	if f.Frame == wire.FrameError {
		return f.Error
	}
	return fmt.Errorf("talign: bad stream: unexpected %q frame", f.Frame)
}

func (r *remoteDB) prepare(ctx context.Context, session, name, sql string) (stmtMeta, error) {
	c, f, err := r.roundTrip(ctx, &wire.Frame{Frame: wire.FramePrepare, Session: session, Stmt: name, SQL: sql}, controlTimeout)
	if err != nil {
		return stmtMeta{}, err
	}
	c.release()
	if f.Frame != wire.FramePrepared {
		return stmtMeta{}, unexpected(f)
	}
	return stmtMeta{numParams: f.NumParams, columns: f.Columns, types: f.Types}, nil
}

func (r *remoteDB) register(string, *relation.Relation) error {
	return fmt.Errorf("talign: Register needs an embedded DB; load the catalog on the talignd side")
}

func (r *remoteDB) analyze(string) (*stats.Table, error) {
	return nil, fmt.Errorf("talign: Analyze needs an embedded DB; run the ANALYZE statement instead")
}

func (r *remoteDB) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.idle {
		c.nc.Close()
	}
	r.idle, r.closed = nil, true
	return nil
}

// wireConn is one frame connection — its codec, reused across statements
// — and the Rows source of the statement running on it. A stream that
// ends without a status frame, or whose status frame disagrees with the
// rows received, is an error, never a silent truncation.
type wireConn struct {
	db   *remoteDB
	nc   net.Conn
	fw   *wire.Writer
	dec  *wire.Decoder
	ring [1][]byte

	ctx  context.Context // the running statement's
	stop func() bool     // its context.AfterFunc; nil when ctx cannot be cancelled
	done bool            // its answer was read to the terminal frame
}

// errTruncated reports a stream that ended before its terminal frame.
var errTruncated = errors.New("talign: stream truncated before status frame")

// interrupt fails the connection's I/O: the statement's ctx was cancelled.
func (c *wireConn) interrupt() { c.nc.SetDeadline(time.Unix(1, 0)) }

// send starts a statement: it arms the deadline and the cancellation,
// writes the request and reads the first answer frame. stale reports the
// connection failing before the answer began, as one that died idle does.
func (c *wireConn) send(ctx context.Context, req *wire.Frame, limit time.Duration) (f wire.Frame, stale bool, err error) {
	c.ctx, c.done = ctx, false
	c.nc.SetDeadline(time.Now().Add(limit))
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.interrupt)
	}
	if err = c.fw.Write(*req); err != nil {
		err = c.classify(err)
	} else {
		f, err = c.next()
	}
	return f, err != nil && (err == errTruncated || errors.As(err, new(*net.OpError))), err
}

// next reads the statement's next answer frame.
func (c *wireConn) next() (wire.Frame, error) {
	if err := faultinject.Hit("wire.decode"); err != nil {
		return wire.Frame{}, err
	}
	f, err := c.dec.Next()
	if err != nil {
		return f, c.classify(err)
	}
	c.done = f.Frame == wire.FrameStatus || f.Frame == wire.FrameError || f.Frame == wire.FramePrepared
	return f, nil
}

// classify turns a failed read or write into the client's error.
func (c *wireConn) classify(err error) error {
	switch {
	case c.ctx.Err() != nil:
		return c.ctx.Err()
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("talign: %w waiting for talignd at %s", context.DeadlineExceeded, c.db.base)
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return errTruncated
	case errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrVersion):
		return fmt.Errorf("talign: bad stream: %v", err)
	}
	return err
}

// release ends the statement: a connection whose answer was read to its
// terminal frame goes back to the pool unless that is full or the DB
// closed, any other is closed — mid-stream that hangs up on the server,
// which cancels the plan.
func (c *wireConn) release() {
	if c.stop != nil && !c.stop() {
		c.done = false // the cancellation fired and left its deadline behind
	}
	c.ctx, c.stop = nil, nil
	r := c.db
	r.mu.Lock()
	if c.done && !r.closed && len(r.idle) < maxIdleConns {
		r.idle = append(r.idle, c)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	c.nc.Close()
}

// NextBatch is the Rows source's pull.
func (c *wireConn) NextBatch() (*colbatch.Batch, error) {
	f, err := c.next()
	switch {
	case err != nil || f.Frame == wire.FrameStatus:
		return nil, err
	case f.Frame == wire.FrameRows:
		return f.Batch, nil
	}
	return nil, unexpected(f)
}

// Close ends the Rows' statement (see release); the cursor calls it once.
func (c *wireConn) Close() error {
	c.release()
	return nil
}
