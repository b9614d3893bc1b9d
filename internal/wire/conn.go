package wire

import (
	"bufio"
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
	"sync/atomic"
	"time"

	"talign/internal/backoff"
	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/sqlish"
)

// The frame-connection client's fixed limits.
const (
	dialTimeout         = 5 * time.Second
	tlsHandshakeTimeout = 5 * time.Second
	upgradeTimeout      = 10 * time.Second
)

// Pool is a client's frame connections to one talignd server (GET /frames
// upgraded to FrameProtocol, each with its own Writer and Decoder), and
// the one client of the protocol: the public talignd:// client and the
// coordinator's worker hop both run their exchanges through a Pool.
//
// An exchange (RoundTrip) takes the most recently used idle connection,
// or dials a new one, writes its request frames and reads the first
// answer frame. Dial and upgrade failures, 503s and "unavailable" first
// answers (a draining server) are retried with backoff and jitter up to
// Retries times — every request must be idempotent; a request a pooled
// connection lost before its answer began (the server closed it while
// idle) is re-sent once on a fresh connection, outside that budget.
//
// Set the exported fields before the first exchange.
type Pool struct {
	// Retries is how many times an unreachable exchange is retried
	// beyond its first attempt.
	Retries int
	// MaxIdle bounds the connections kept between exchanges.
	MaxIdle int
	// Ring is the number of frame buffers each connection's decoder
	// cycles through (Decoder.ReuseBuffers): a rows frame's batch stays
	// valid until the Ring-th following read. 0 gives every frame its own.
	Ring int
	// Site names a faultinject site visited before every attempt; a fault
	// there fails the attempt as an unreachable server would.
	Site string
	// Retried counts attempts repeated after an unreachable one; Read and
	// Written count the frame bytes received and sent.
	Retried, Read, Written atomic.Uint64

	base string      // the server's URL, for messages
	addr string      // host:port to dial
	tls  *tls.Config // https:// servers
	err  error       // a base URL that names no server

	mu     sync.Mutex
	idle   []*Conn // most recently used last
	closed bool
}

// NewPool returns an empty pool for the server at base, an http:// or
// https:// URL; a URL without a host fails every exchange.
func NewPool(base string) *Pool {
	p := &Pool{base: base}
	u, err := url.Parse(base)
	if err == nil && u.Host == "" {
		err = fmt.Errorf("talign: %q names no server", base)
	}
	if p.err = err; err == nil {
		p.addr = u.Host
		if u.Port() == "" {
			p.addr = net.JoinHostPort(u.Hostname(), u.Scheme) // the service name: port 80 or 443
		}
		if u.Scheme == "https" {
			p.tls = &tls.Config{ServerName: u.Hostname()}
		}
	}
	return p
}

// UnreachableError is the failure of an exchange that never found a
// server willing to answer it — no connection, a refused upgrade, an
// "unavailable" first answer — once its retries are spent. It reads as
// the last attempt's failure.
type UnreachableError struct{ Err error }

// Error reads as the last attempt's failure.
func (e *UnreachableError) Error() string { return e.Err.Error() }

// Unwrap returns the last attempt's failure.
func (e *UnreachableError) Unwrap() error { return e.Err }

// withRetries runs try until it succeeds, fails for good or has used up
// the retry budget, backing off between attempts; a failure worth
// retrying that outlasts the budget is an UnreachableError.
func (p *Pool) withRetries(ctx context.Context, try func() (retry bool, err error)) error {
	for attempt := 0; ; attempt++ {
		retry, err := try()
		if err == nil || !retry {
			return err
		}
		if attempt >= p.Retries || ctx.Err() != nil {
			return &UnreachableError{err}
		}
		p.Retried.Add(1)
		select {
		case <-time.After(backoff.Default(attempt)):
		case <-ctx.Done():
			return &UnreachableError{err}
		}
	}
}

// Connect dials and upgrades one connection, retrying as RoundTrip does,
// and parks it: the check that a server is there and speaks frame
// connections.
func (p *Pool) Connect(ctx context.Context) error {
	var c *Conn
	err := p.withRetries(ctx, func() (retry bool, err error) {
		c, retry, err = p.dial(ctx)
		return retry, err
	})
	if err == nil {
		c.done = true // nothing is in flight on it: Close parks it
		c.Close()
	}
	return err
}

// dial opens a frame connection: TCP (TLS to an https:// server) and the
// upgrade, which ctx's cancellation cuts short as it does an exchange.
// unreachable reports a failure worth retrying: no connection, or a 503.
func (p *Pool) dial(ctx context.Context) (c *Conn, unreachable bool, err error) {
	if p.err != nil {
		return nil, false, p.err
	}
	nc, err := (&net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}).DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, true, err
	}
	if p.tls != nil {
		tc := tls.Client(nc, p.tls)
		hctx, cancel := context.WithTimeout(ctx, tlsHandshakeTimeout)
		err, nc = tc.HandshakeContext(hctx), tc
		cancel()
		if err != nil {
			nc.Close()
			return nil, true, err
		}
	}
	br := bufio.NewReader(nc)
	nc.SetDeadline(time.Now().Add(upgradeTimeout))
	cancelled := func() { nc.SetDeadline(time.Unix(1, 0)) }
	stop := context.AfterFunc(ctx, cancelled)
	var resp *http.Response
	_, err = fmt.Fprintf(nc, "GET /frames HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", p.addr, FrameProtocol)
	if err == nil {
		resp, err = http.ReadResponse(br, nil)
	}
	switch {
	case !stop():
		unreachable, err = false, ctx.Err()
	case err != nil:
		unreachable = true
	case resp.StatusCode == http.StatusNotFound:
		err = fmt.Errorf("talign: talignd at %s does not speak frame connections", p.base)
	case resp.StatusCode >= http.StatusBadRequest: // a structured error body; a 503 from a draining server
		var out struct{ Error *Error }
		err = fmt.Errorf("talign: server returned %s", resp.Status)
		if json.NewDecoder(resp.Body).Decode(&out) == nil && out.Error != nil {
			err = out.Error
		}
		unreachable = resp.StatusCode == http.StatusServiceUnavailable
	case resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), FrameProtocol):
		err = fmt.Errorf("talign: bad stream: talignd at %s answered the upgrade with %s (Upgrade: %q), not 101", p.base, resp.Status, resp.Header.Get("Upgrade"))
	}
	if err != nil {
		nc.Close()
		return nil, unreachable, err
	}
	nc.SetDeadline(time.Time{})
	c = &Conn{pool: p, nc: nc, io: counted{r: br, w: nc, read: &p.Read, written: &p.Written}, cancelled: cancelled}
	c.fw, c.dec = NewWriter(&c.io, MediaBatch), NewDecoder(&c.io)
	if p.Ring > 0 {
		c.dec.ReuseBuffers(make([][]byte, p.Ring))
	}
	return c, false, nil
}

// RoundTrip runs one exchange: it writes reqs — a request frame and any
// frames that follow it — on the most recently used idle connection, or
// a new one, with ctx's cancellation armed on it, and returns the
// connection and the first answer frame, which must arrive within limit
// of the last request frame being written, retrying
// as Pool describes. The caller reads the rest of the answer with Next
// or NextBatch and ends the exchange with Close.
func (p *Pool) RoundTrip(ctx context.Context, limit time.Duration, reqs ...Frame) (*Conn, Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, Frame{}, err
	}
	var c *Conn
	var first Frame
	err := p.withRetries(ctx, func() (retry bool, err error) {
		if err := faultinject.Hit(p.Site); err != nil {
			return true, err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return false, fmt.Errorf("talign: DB is closed")
		}
		if n := len(p.idle); n > 0 {
			c, p.idle = p.idle[n-1], p.idle[:n-1]
		}
		p.mu.Unlock()
		stale := false
		if c != nil {
			if first, stale, err = c.send(ctx, limit, reqs); stale {
				c.Close()
				c = nil
			}
		}
		if c == nil {
			if c, retry, err = p.dial(ctx); err != nil {
				return retry, err
			}
			first, _, err = c.send(ctx, limit, reqs)
		}
		if err == nil && first.Frame == FrameError && first.Error.Code == sqlish.ErrUnavailable {
			c.done, retry, err = false, true, first.Error // a draining server refuses and hangs up
		}
		if err != nil {
			c.Close()
			c = nil
		}
		return retry, err
	})
	return c, first, err
}

// Close closes the idle connections and refuses further exchanges;
// connections in use close when released.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		c.nc.Close()
	}
	p.idle, p.closed = nil, true
}

// Conn is one frame connection of a Pool — its codec, reused across
// exchanges — and, between RoundTrip and Close, the answer of the
// exchange running on it. An answer that ends without its terminal frame,
// or whose status frame disagrees with the rows received, is an error,
// never a silent truncation.
type Conn struct {
	pool      *Pool
	nc        net.Conn
	io        counted
	fw        *Writer
	dec       *Decoder
	cancelled func() // fails the connection's I/O: the exchange's ctx was cancelled

	ctx  context.Context // the running exchange's
	stop func() bool     // its context.AfterFunc; nil when ctx cannot be cancelled or the answer is over
	done bool            // its answer was read to the terminal frame
}

// counted counts the bytes that cross a connection into its pool's totals.
type counted struct {
	r             io.Reader
	w             io.Writer
	read, written *atomic.Uint64
}

func (c *counted) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read.Add(uint64(n))
	return n, err
}

func (c *counted) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.written.Add(uint64(n))
	return n, err
}

// errTruncated reports an answer that ended before its terminal frame.
var errTruncated = errors.New("talign: stream truncated before status frame")

// send starts an exchange: it arms the cancellation, writes the request
// frames — which may take as long as the server takes to read them, a
// staged shard's included — then arms the deadline limit from now on the
// first answer frame and reads it. stale reports the connection failing
// before the answer began, as one that died idle does.
func (c *Conn) send(ctx context.Context, limit time.Duration, reqs []Frame) (f Frame, stale bool, err error) {
	c.ctx, c.done = ctx, false
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.cancelled)
	}
	for i := 0; i < len(reqs) && err == nil; i++ {
		err = c.fw.Write(reqs[i])
	}
	if err != nil {
		err = c.classify(err)
	} else {
		c.readBy(time.Now().Add(limit))
		f, err = c.Next()
	}
	return f, err != nil && (err == errTruncated || errors.As(err, new(*net.OpError))), err
}

// Next reads the exchange's next answer frame.
func (c *Conn) Next() (Frame, error) {
	if err := faultinject.Hit("wire.decode"); err != nil {
		return Frame{}, err
	}
	f, err := c.dec.Next()
	if err != nil {
		return f, c.classify(err)
	}
	if f.Frame == FrameStatus || f.Frame == FrameError || f.Frame == FramePrepared {
		c.done = true
		c.disarm() // the answer is over: a later cancellation must not cut the connection
	}
	return f, nil
}

// NoDeadline lifts the exchange's deadline once its answer has begun:
// rows may take minutes to arrive, and then only the context bounds them.
func (c *Conn) NoDeadline() { c.readBy(time.Time{}) }

// readBy sets the answer's read deadline (zero: none), re-applying a
// cancellation the new deadline overwrote.
func (c *Conn) readBy(t time.Time) {
	if c.nc.SetReadDeadline(t); c.stop != nil && c.ctx.Err() != nil {
		c.cancelled()
	}
}

// BufferAllocs reports how many frame buffers the connection's decoder
// has allocated.
func (c *Conn) BufferAllocs() int { return c.dec.BufferAllocs() }

// disarm detaches the connection from the exchange's context. A
// cancellation that already fired left its deadline behind, so the
// connection is not reused.
func (c *Conn) disarm() {
	if c.stop != nil && !c.stop() {
		c.done = false
	}
	c.stop = nil
}

// classify turns a failed read or write into the client's error.
func (c *Conn) classify(err error) error {
	switch {
	case c.ctx != nil && c.ctx.Err() != nil:
		return c.ctx.Err()
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("talign: %w waiting for talignd at %s", context.DeadlineExceeded, c.pool.base)
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return errTruncated
	case errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion):
		return fmt.Errorf("talign: bad stream: %w", err)
	}
	return err
}

// Close ends the exchange: a connection whose answer was read to its
// terminal frame goes back to the pool unless that is full or closed; any
// other is closed — mid-answer that hangs up on the server, which cancels
// the running statement.
func (c *Conn) Close() error {
	c.disarm()
	c.ctx = nil
	p := c.pool
	p.mu.Lock()
	if c.done && !p.closed && len(p.idle) < p.MaxIdle {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	return c.nc.Close()
}

// NextBatch reads the answer's next rows frame: its batch (valid under
// the pool's Ring), or nil at the status frame. An error frame is its
// error, any other frame a bad stream.
func (c *Conn) NextBatch() (*colbatch.Batch, error) {
	f, err := c.Next()
	switch {
	case err != nil || f.Frame == FrameStatus:
		return nil, err
	case f.Frame == FrameRows:
		return f.Batch, nil
	}
	return nil, Unexpected(f)
}

// Unexpected is the error of an answer frame out of place: an error
// frame's own error, or a bad stream wrapping ErrCorrupt.
func Unexpected(f Frame) error {
	if f.Frame == FrameError {
		return f.Error
	}
	return fmt.Errorf("talign: bad stream: unexpected %q frame: %w", f.Frame, ErrCorrupt)
}
