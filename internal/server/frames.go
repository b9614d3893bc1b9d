package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/stats"
	"talign/internal/wire"
)

// EnableFragments makes the server a worker of a distsql coordinator: its
// frame connections also answer the stage, unstage and analyze frames the
// coordinator sends and query frames that name a cut of the statement's
// plan or a substitution, and every request on them visits the
// "distsql.fragment" fault site. Any other server refuses those frames
// with a "request" error and goes on serving the connection. Call it
// before serving.
func (s *Server) EnableFragments() { s.fragments.Store(true) }

// handleFrames upgrades the connection to wire.FrameProtocol and answers
// its request frames, one at a time, until the client hangs up. A
// draining server refuses the upgrade with the 503 every refused query
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
	// The connection's one reader hands frames over, reading one ahead; its
	// read failing — the client hung up — cancels ctx and with it a running
	// plan. A worker's staged relation keeps its rows frames, so on a
	// worker, between a stage frame and the status frame ending its
	// relation, every frame gets its own buffer instead of the reused one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make(chan wire.Frame)
	worker := s.fragments.Load()
	go func() {
		defer close(reqs)
		defer cancel()
		ring := make([][]byte, 1)
		dec := wire.NewDecoder(rw.Reader)
		dec.ReuseBuffers(ring)
		for {
			f, err := dec.Next()
			if err != nil {
				return
			}
			switch {
			case f.Frame == wire.FrameStage && worker:
				dec.ReuseBuffers(nil)
			case f.Frame == wire.FrameStatus || f.Frame == wire.FrameError:
				dec.ReuseBuffers(ring)
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
			s.answerFrame(ctx, fw, req, reqs, worker)
		case <-s.drained:
			return
		}
	}
}

// answerFrame runs one request and writes its answer: the frame stream
// /query/stream would send, a prepared frame, or — for a worker's stage,
// unstage and analyze frames — a status frame carrying a row count. A
// stage frame's relation is read off more, whatever the answer; a server
// that is no worker skips it.
func (s *Server) answerFrame(ctx context.Context, fw *wire.Writer, req wire.Frame, more <-chan wire.Frame, worker bool) {
	var shard *colbatch.Batch
	var err error
	if req.Frame == wire.FrameStage {
		shard, err = readShard(more, worker)
	}
	if err == nil && worker {
		err = faultinject.Hit("distsql.fragment")
	}
	var rows int64
	switch {
	case err != nil:
	case req.Frame == wire.FrameQuery && !worker && (req.Cut != sqlish.CutWhole || req.Subst != nil):
		err = fmt.Errorf("server: a query frame with a cut or a substitution is for workers; this server is not one")
	case req.Frame == wire.FrameQuery:
		var rs *RowStream
		if rs, err = s.streamBatch(ctx, req.Session, req.Stmt, req.SQL, req.Params, req.BatchSize, fragment{req.Cut, req.Subst}); err == nil {
			defer rs.Close()
			s.streams.Add(1)
			writeFrames(fw, rs, true, nil)
			return
		}
	case req.Frame == wire.FramePrepare:
		var prep *sqlish.Prepared
		if prep, err = s.Prepare(req.Session, req.Stmt, req.SQL); err == nil {
			cols, types := prep.Columns()
			fw.Write(wire.Frame{Frame: wire.FramePrepared, NumParams: prep.NumParams, Columns: cols, Types: types})
			return
		}
	case req.Frame != wire.FrameStage && req.Frame != wire.FrameUnstage && req.Frame != wire.FrameAnalyze:
		err = fmt.Errorf("server: a frame connection takes request frames, not %q", req.Frame)
	case !worker:
		err = fmt.Errorf("server: %s frames are for workers; this server is not one", req.Frame)
	case req.Frame == wire.FrameStage:
		// Built directly rather than via Append: a staged shard may carry
		// all-ω columns typed KindNull by the coordinator's local plan, and
		// Append's kind check would reject the non-null originals.
		s.catalog.Register(req.Table, relation.FromColumnar(shard))
		rows = int64(shard.Len())
	case req.Frame == wire.FrameUnstage:
		// Idempotent: unstaging an absent table is a success, so the
		// coordinator's best-effort cleanup can retry blindly. The drop
		// purges the plans over the shard, which unpins it.
		s.catalog.Drop(req.Table)
	case req.Table == "":
		rows = int64(s.AnalyzeAll())
	default:
		var t *stats.Table
		if t, err = s.Analyze(req.Table); err == nil {
			rows = t.Rows
		}
	}
	if err != nil {
		fw.Write(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(err, errorCode(err))})
		return
	}
	fw.Write(wire.Frame{Frame: wire.FrameStatus, RowCount: rows})
}

// readShard reads a staged relation — schema frame, rows frames, status
// frame — into one dense batch, always through its terminal frame, so a
// refused or malformed relation leaves the connection at the next
// request. The first rows frame types the columns (a stage always sends
// one, even for an empty relation), and a relation that fits one frame is
// that frame's batch, uncopied; one of many is copied once, into storage
// reserved for all its rows. Unless keep, the rows frames are dropped as
// they arrive and the batch is nil.
func readShard(frames <-chan wire.Frame, keep bool) (*colbatch.Batch, error) {
	var parts []*colbatch.Batch
	var err error
	ncols, nframes, rows := -1, 0, 0
	for f := range frames {
		switch {
		case err != nil:
		case f.Frame == wire.FrameSchema && ncols < 0 && len(f.Columns) >= 2:
			ncols = len(f.Columns) - 2 // the schema frame also lists ts and te
		case f.Frame == wire.FrameRows && len(f.Batch.Cols) == ncols:
			if nframes++; keep {
				parts, rows = append(parts, f.Batch), rows+f.Batch.Len()
			}
		case f.Frame != wire.FrameStatus || nframes == 0:
			err = fmt.Errorf("server: stage: unexpected %q frame", f.Frame)
		}
		if f.Frame != wire.FrameStatus && f.Frame != wire.FrameError {
			continue
		}
		if err != nil || !keep {
			return nil, err
		}
		img := parts[0]
		if len(parts) > 1 {
			img = colbatch.New(img.Schema)
			img.Reserve(rows)
			for _, p := range parts {
				img.AppendBatch(p)
			}
		}
		return img, nil
	}
	return nil, fmt.Errorf("server: stage: the connection closed inside the relation")
}
