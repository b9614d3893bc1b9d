package distsql

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"talign/internal/sqlish"
	"talign/internal/wire"
)

// rawFrame assembles a binary frame of the given kind byte around any
// payload, checksummed — the way to build frames wire.Writer refuses to.
func rawFrame(kind byte, payload []byte) []byte {
	b := []byte{'T', 'F', wire.BatchFrameVersion, kind}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestWorkerStreamDefects: a worker whose exec answer is malformed — an
// error frame without its error object (which used to panic the
// coordinator's reader goroutine), a status frame that disagrees with
// the rows carried, a dropped or duplicated rows frame, NDJSON where
// batch frames belong — fails the query with the structured
// "unavailable" error naming that worker; the coordinator keeps serving.
func TestWorkerStreamDefects(t *testing.T) {
	// The defect is applied to worker 1's real exec answer: rewrite takes
	// the frames the worker sent and returns the bytes to forward.
	var rewrite atomic.Pointer[func(frames [][]byte) []byte]
	cl := newClusterWrapped(t, 2, nil, func(i int, real http.Handler) http.Handler {
		if i != 1 {
			return real
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			fn := rewrite.Load()
			if fn == nil || !bytes.Contains(body, []byte(`"op":"exec"`)) {
				real.ServeHTTP(w, r)
				return
			}
			rec := &recorder{header: http.Header{}}
			real.ServeHTTP(rec, r)
			w.Header().Set("Content-Type", wire.MediaBatch)
			w.Write((*fn)(splitFrames(t, rec.Bytes())))
		})
	})
	cl.load(t, testRels(0))
	cl.coord.client.retries = 0

	join := func(frames [][]byte) []byte { return bytes.Join(frames, nil) }
	defects := map[string]func(frames [][]byte) []byte{
		"body-less error frame": func(frames [][]byte) []byte {
			return join([][]byte{frames[0], rawFrame(5, nil)})
		},
		"status counts a row too many": func(frames [][]byte) []byte {
			return join(append(frames[:len(frames)-1:len(frames)-1], rawFrame(4, binary.LittleEndian.AppendUint64(nil, 1<<20))))
		},
		"dropped rows frame": func(frames [][]byte) []byte {
			return join(append(frames[:1:1], frames[2:]...))
		},
		"duplicated rows frame": func(frames [][]byte) []byte {
			return join(append(frames[:2:2], frames[1:]...))
		},
		"bit flip inside a frame": func(frames [][]byte) []byte {
			out := join(frames)
			out[len(frames[0])+len(frames[1])/2] ^= 0x40
			return out
		},
		"NDJSON on the node hop": func([][]byte) []byte {
			return []byte(`{"frame":"error"}` + "\n")
		},
	}
	const q = "SELECT a, b, Ts, Te FROM r"
	for name, fn := range defects {
		rewrite.Store(&fn)
		_, err := cl.csrv.QueryContext(context.Background(), "", "", q, nil)
		var se *sqlish.Error
		if !errors.As(err, &se) || se.Code != sqlish.ErrUnavailable || !strings.Contains(se.Msg, "worker w1") {
			t.Errorf("%s: got %v, want a structured %q error naming worker w1", name, err, sqlish.ErrUnavailable)
		}
	}
	rewrite.Store(nil)
	if _, err := cl.csrv.QueryContext(context.Background(), "", "", q, nil); err != nil {
		t.Fatalf("coordinator did not recover once the worker answered properly: %v", err)
	}
	waitFor(t, 5*time.Second, "coordinator gate to drain", func() bool { return cl.csrv.GateStats().InUse == 0 })
}

// recorder buffers a handler's answer.
type recorder struct {
	bytes.Buffer
	header http.Header
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(int)     {}

// splitFrames cuts a well-formed binary frame stream into its frames
// (schema, at least one rows frame, status).
func splitFrames(t *testing.T, stream []byte) [][]byte {
	var frames [][]byte
	for len(stream) > 0 {
		n := 8 + int(binary.LittleEndian.Uint32(stream[4:])) + 4
		frames, stream = append(frames, stream[:n]), stream[n:]
	}
	if len(frames) < 3 {
		t.Errorf("worker answered %d frames, the defects need schema, rows and status", len(frames))
	}
	return frames
}
