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

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/tuple"
	"talign/internal/value"
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

// frameFake is a worker that serves GET /frames as talignd does but
// answers each request frame with the bytes answer gives it: canned,
// possibly malformed frames. A stage frame's relation is read before the
// stage is answered.
func frameFake(t *testing.T, answer func(req wire.Frame) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.FrameProtocol+"\r\n\r\n")
		dec := wire.NewDecoder(rw.Reader)
		for {
			req, err := dec.Next()
			if err != nil {
				return
			}
			for f := req; req.Frame == wire.FrameStage && f.Frame != wire.FrameStatus; {
				if f, err = dec.Next(); err != nil {
					return
				}
			}
			conn.Write(answer(req))
		}
	})
}

// encode encodes each frame on its own.
func encode(t *testing.T, fs ...wire.Frame) [][]byte {
	out := make([][]byte, len(fs))
	for i, f := range fs {
		var buf bytes.Buffer
		if err := wire.NewWriter(&buf, wire.MediaBatch).Write(f); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestWorkerStreamDefects: a worker whose exec answer is malformed — an
// error frame without its error object (which used to panic the
// coordinator's reader goroutine), a status frame that disagrees with
// the rows carried, a dropped or duplicated rows frame, NDJSON where
// batch frames belong — fails the query with the structured
// "unavailable" error naming that worker; the coordinator keeps serving.
func TestWorkerStreamDefects(t *testing.T) {
	shard := colbatch.New(schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindInt}))
	for i := int64(0); i < 3; i++ {
		shard.AppendTuple(tuple.Tuple{Vals: []value.Value{value.NewInt(i), value.NewInt(-i)}, T: interval.New(i, i+2)})
	}
	// Worker 1's exec answer, frame by frame: schema, rows, status.
	frames := encode(t,
		wire.Frame{Frame: wire.FrameSchema, Columns: []string{"a", "b", "ts", "te"}, Types: []string{"int", "int", "int", "int"}},
		wire.Frame{Frame: wire.FrameRows, Batch: shard},
		wire.Frame{Frame: wire.FrameStatus, RowCount: int64(shard.Len())})
	join := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	var defect atomic.Pointer[[]byte] // nil: answer properly
	cl := newClusterWrapped(t, 2, nil, func(i int, real http.Handler) http.Handler {
		if i != 1 {
			return real
		}
		return frameFake(t, func(req wire.Frame) []byte {
			switch {
			case req.Frame != wire.FrameQuery:
				return join(encode(t, wire.Frame{Frame: wire.FrameStatus})...)
			case defect.Load() != nil:
				return *defect.Load()
			}
			return join(frames...)
		})
	})
	cl.load(t, testRels(0))
	cl.noRetries()

	flipped := join(frames...)
	flipped[len(frames[0])+len(frames[1])/2] ^= 0x40
	defects := map[string][]byte{
		"body-less error frame":        join(frames[0], rawFrame(5, nil)),
		"status counts a row too many": join(frames[0], frames[1], rawFrame(4, binary.LittleEndian.AppendUint64(nil, 1<<20))),
		"dropped rows frame":           join(frames[0], frames[2]),
		"duplicated rows frame":        join(frames[0], frames[1], frames[1], frames[2]),
		"bit flip inside a frame":      flipped,
		"NDJSON on the node hop":       []byte(`{"frame":"error"}` + "\n"),
	}
	const q = "SELECT a, b, Ts, Te FROM r"
	for name, bad := range defects {
		defect.Store(&bad)
		_, err := sqltest.Run(context.Background(), cl.csrv, "", "", q, nil, 0)
		var se *sqlish.Error
		if !errors.As(err, &se) || se.Code != sqlish.ErrUnavailable || !strings.Contains(se.Msg, "worker w1") {
			t.Errorf("%s: got %v, want a structured %q error naming worker w1", name, err, sqlish.ErrUnavailable)
		}
	}
	defect.Store(nil)
	if _, err := sqltest.Run(context.Background(), cl.csrv, "", "", q, nil, 0); err != nil {
		t.Fatalf("coordinator did not recover once the worker answered properly: %v", err)
	}
	waitFor(t, 5*time.Second, "coordinator gate to drain", func() bool { return cl.csrv.GateStats().InUse == 0 })
}
