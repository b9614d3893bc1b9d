package distsql

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/value"
	"talign/internal/wire"
)

// Handler wraps a worker's server with the fragment endpoint: the full
// single-node HTTP surface stays mounted (health probes, /metrics,
// direct debugging queries), and POST /fragment adds the
// coordinator-facing operations — exec (a streamed shard-local query,
// answered in binary batch frames straight off the columnar executor),
// stage/unstage (shard registration for CREATE and the repartitioning
// shuffle; the shard follows the request object as batch frames) and
// analyze (statistics broadcast).
func Handler(srv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /fragment", func(w http.ResponseWriter, r *http.Request) {
		var req wire.FragmentRequest
		dec := json.NewDecoder(r.Body)
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			server.HTTPError(w, fmt.Errorf("distsql: bad fragment body: %v", err))
			return
		}
		if err := faultinject.Hit("distsql.fragment"); err != nil {
			server.HTTPError(w, err)
			return
		}
		switch req.Op {
		case wire.FragmentExec:
			params := make([]value.Value, len(req.Params))
			for i, p := range req.Params {
				v, err := wire.Value(p)
				if err != nil {
					server.HTTPError(w, fmt.Errorf("distsql: fragment param $%d: %v", i+1, err))
					return
				}
				params[i] = v
			}
			rs, err := srv.StreamBatch(r.Context(), "", "", req.SQL, params, req.Batch)
			if err != nil {
				server.HTTPError(w, err)
				return
			}
			defer rs.Close()
			server.WriteFrameStream(w, rs, wire.MediaBatch)
		case wire.FragmentStage:
			// The JSON decoder may have read past the request object; the
			// frames start in its buffer and continue in the body.
			img, err := readStaged(wire.NewDecoder(io.MultiReader(dec.Buffered(), r.Body)))
			if err != nil {
				server.HTTPError(w, fmt.Errorf("distsql: stage %s: %v", req.Name, err))
				return
			}
			// Built directly rather than via Append: a staged shard may carry
			// all-ω columns typed KindNull by the coordinator's local plan,
			// and Append's kind check would reject the non-null originals.
			srv.Catalog().Register(req.Name, relation.FromColumnar(img))
			writeAck(w, wire.FragmentAck{OK: true, Rows: int64(img.Len())})
		case wire.FragmentUnstage:
			// Idempotent: unstaging an absent table is a success, so the
			// coordinator's best-effort cleanup can retry blindly. The
			// drop purges the plans over the shard, which unpins it.
			srv.Catalog().Drop(req.Name)
			writeAck(w, wire.FragmentAck{OK: true})
		case wire.FragmentAnalyze:
			if req.Name == "" {
				n := srv.AnalyzeAll()
				writeAck(w, wire.FragmentAck{OK: true, Rows: int64(n)})
				return
			}
			t, err := srv.Analyze(req.Name)
			if err != nil {
				server.HTTPError(w, err)
				return
			}
			writeAck(w, wire.FragmentAck{OK: true, Rows: int64(t.Rows)})
		default:
			server.HTTPError(w, &sqlish.Error{
				Code: sqlish.ErrRequest,
				Msg:  fmt.Sprintf("distsql: unknown fragment op %q", req.Op),
				Pos:  -1,
			})
		}
	})
	return mux
}

// readStaged reads a staged shard — schema frame, rows frames, status
// frame — into one dense batch. The first rows frame types the columns
// (a stage body always carries one, even for an empty shard), and a
// shard that fits one frame is that frame's batch, uncopied.
func readStaged(frames *wire.Decoder) (*colbatch.Batch, error) {
	var img *colbatch.Batch
	ncols, nframes := -1, 0
	for {
		f, err := frames.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case f.Frame == wire.FrameSchema && ncols < 0 && len(f.Columns) >= 2:
			ncols = len(f.Columns) - 2 // the schema frame also lists ts and te
		case f.Frame == wire.FrameRows && f.Batch != nil && ncols >= 0:
			if len(f.Batch.Cols) != ncols {
				return nil, fmt.Errorf("rows frame has %d columns, the schema frame named %d", len(f.Batch.Cols), ncols)
			}
			if nframes++; nframes == 1 {
				img = f.Batch
				continue
			}
			if nframes == 2 {
				first := img
				img = colbatch.New(first.Schema)
				img.AppendBatch(first)
			}
			img.AppendBatch(f.Batch)
		case f.Frame == wire.FrameStatus && img != nil:
			return img, nil
		default:
			return nil, fmt.Errorf("unexpected %q frame", f.Frame)
		}
	}
}

func writeAck(w http.ResponseWriter, ack wire.FragmentAck) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ack)
}
