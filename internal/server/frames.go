package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"talign/internal/sqlish"
	"talign/internal/wire"
)

// handleFrames upgrades the connection to wire.FrameProtocol and answers
// its query and prepare frames, one at a time, until the client hangs up.
// A draining server refuses the upgrade with the 503 every refused query
// gets, and closes the connection once its running statement is done.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, errDraining())
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.FrameProtocol) {
		httpError(w, fmt.Errorf("server: GET /frames needs the header Upgrade: %s", wire.FrameProtocol))
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		httpError(w, fmt.Errorf("server: cannot take the connection over: %v", err))
		return
	}
	defer conn.Close()
	s.frameConnsTotal.Add(1)
	s.frameConns.Add(1)
	defer s.frameConns.Add(-1)
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.FrameProtocol+"\r\n\r\n"); err != nil {
		return
	}
	// The connection's one reader hands requests over; its read failing —
	// the client hung up — cancels ctx and with it a running plan.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make(chan wire.Frame)
	go func() {
		defer close(reqs)
		defer cancel()
		dec := wire.NewDecoder(rw.Reader)
		dec.ReuseBuffers(make([][]byte, 1))
		for {
			f, err := dec.Next()
			if err != nil {
				return
			}
			select {
			case reqs <- f:
			case <-ctx.Done():
				return
			}
		}
	}()
	fw := wire.NewWriter(conn, wire.MediaBatch)
	for {
		select {
		case req, ok := <-reqs:
			if !ok {
				return
			}
			if s.Draining() {
				fw.Write(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(errDraining(), sqlish.ErrUnavailable)})
				return
			}
			s.answerFrame(ctx, fw, req)
		case <-s.drained:
			return
		}
	}
}

// answerFrame runs one request and writes its answer: the frame stream
// /query/stream would send, or a prepared frame.
func (s *Server) answerFrame(ctx context.Context, fw *wire.Writer, req wire.Frame) {
	var err error
	switch req.Frame {
	case wire.FrameQuery:
		var rs *RowStream
		if rs, err = s.StreamBatch(ctx, req.Session, req.Stmt, req.SQL, req.Params, req.BatchSize); err == nil {
			defer rs.Close()
			s.streams.Add(1)
			writeFrames(fw, rs, true, nil)
			return
		}
	case wire.FramePrepare:
		var prep *sqlish.Prepared
		if prep, err = s.Prepare(req.Session, req.Stmt, req.SQL); err == nil {
			cols, types := prep.Columns()
			fw.Write(wire.Frame{Frame: wire.FramePrepared, NumParams: prep.NumParams, Columns: cols, Types: types})
			return
		}
	default:
		err = fmt.Errorf("server: a frame connection takes query and prepare frames, not %q", req.Frame)
	}
	fw.Write(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(err, errorCode(err))})
}
