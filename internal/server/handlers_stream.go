package server

import (
	"errors"
	"net/http"

	"talign/internal/faultinject"
	"talign/internal/tuple"
	"talign/internal/wire"
)

// handleQueryStream is the NDJSON row-streaming endpoint: it runs the
// request under the request's context (client disconnect cancels the
// running plan server-side) and writes the result as a chunked frame
// stream — a schema frame, one rows frame per executor batch, and a
// trailing status (or error) frame — flushing after every frame so rows
// reach the client as the executor produces them. Binary batch frames
// are spoken on frame connections (GET /frames), not here.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, params, err := decodeRequest(r)
	if err != nil {
		httpError(w, err)
		return
	}
	rs, err := s.StreamBatch(r.Context(), req.Session, req.Stmt, req.SQL, params, req.Batch)
	if err != nil {
		// Nothing was sent yet: report the failure as a plain structured
		// HTTP error, exactly like POST /query.
		httpError(w, err)
		return
	}
	defer rs.Close()
	s.streams.Add(1)
	w.Header().Set("Content-Type", wire.MediaNDJSON)
	w.Header().Set("X-Accel-Buffering", "no") // streaming through proxies
	flusher, _ := w.(http.Flusher)
	writeFrames(wire.NewWriter(w, wire.MediaNDJSON), rs, false, flusher)
}

// writeFrames writes a RowStream as frames — schema, one rows frame per
// batch, a terminal status or error frame (also when a frame cannot be
// encoded) — flushing after every frame when given a flusher. It is the
// one writer of the row-stream wire shape, over HTTP and on frame
// connections. Batch frames are pulled with NextBatch, so a columnar
// plan root reaches the socket without being materialized; NDJSON rows
// are pulled with Next.
func writeFrames(fw *wire.Writer, rs *RowStream, binary bool, flusher http.Flusher) {
	send := func(f wire.Frame) bool {
		err := fw.Write(f)
		ended := false
		if errors.Is(err, wire.ErrEncode) && f.Frame != wire.FrameError {
			// Nothing of the frame was written (a batch over the frame limit,
			// say): end the stream with the cause, not as a truncation.
			err = fw.Write(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(err, errorCode(err))})
			ended = true
		}
		if err != nil {
			rs.hangUp() // the peer is gone; the caller's Close cancels upstream
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return !ended
	}

	if rs.Plan() != "" {
		if send(wire.Frame{Frame: wire.FramePlan, Plan: rs.Plan(), CacheHit: rs.CacheHit()}) {
			send(wire.Frame{Frame: wire.FrameStatus})
		}
		return
	}
	if !send(wire.Frame{Frame: wire.FrameSchema, Columns: rs.Columns(), Types: rs.Types(), CacheHit: rs.CacheHit()}) {
		return
	}
	// pull fetches the next rows frame in the stream's encoding, and how
	// many rows it carries (none at exhaustion).
	pull := func() (f wire.Frame, n int, err error) {
		f.Frame = wire.FrameRows
		if binary {
			if f.Batch, err = rs.NextBatch(); f.Batch != nil {
				n = f.Batch.NumRows()
			}
			return f, n, err
		}
		batch, err := rs.Next()
		f.Rows = cellRows(batch)
		return f, len(batch), err
	}
	var total int64
	for {
		f, n, err := pull()
		if err == nil {
			// Chaos-test seam: fail (or stall) the response mid-stream, after
			// rows have already been flushed to the client.
			err = faultinject.Hit("server.stream.rows")
		}
		if err != nil {
			send(wire.Frame{Frame: wire.FrameError, Error: wire.FromError(err, errorCode(err))})
			return
		}
		if n == 0 {
			send(wire.Frame{Frame: wire.FrameStatus, RowCount: total})
			return
		}
		total += int64(n)
		if !send(f) {
			return
		}
	}
}

// cellRows renders tuples as NDJSON rows: the visible cells, then the
// valid-time bounds.
func cellRows(batch []tuple.Tuple) [][]any {
	rows := make([][]any, len(batch))
	for i, t := range batch {
		row := make([]any, 0, len(t.Vals)+2)
		for _, v := range t.Vals {
			row = append(row, wire.Cell(v))
		}
		row = append(row, t.T.Ts, t.T.Te)
		rows[i] = row
	}
	return rows
}
