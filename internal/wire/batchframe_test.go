package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/randrel"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// edgeSchema has one column per kind, an untyped column and an int
// column the generator demotes to boxed storage.
var edgeSchema = schema.MustNew(
	schema.Attr{Name: "i", Type: value.KindInt},
	schema.Attr{Name: "s", Type: value.KindString},
	schema.Attr{Name: "f", Type: value.KindFloat},
	schema.Attr{Name: "ok", Type: value.KindBool},
	schema.Attr{Name: "p", Type: value.KindInterval},
	schema.Attr{Name: "u", Type: value.KindNull},
	schema.Attr{Name: "mix", Type: value.KindInt},
)

// edgeBatch widens a random (int, string) relation into edgeSchema: the
// derived columns walk through NaN, ±Inf, whole floats, empty strings,
// int64 extremes, periods, ω everywhere, an all-ω untyped column and an
// int column holding floats (demoted to boxed cells).
func edgeBatch(rng *rand.Rand, maxRows int) *colbatch.Batch {
	cfg := randrel.DefaultConfig(schema.Attr{Name: "i", Type: value.KindInt}, schema.Attr{Name: "s", Type: value.KindString})
	cfg.MaxTuples, cfg.TimeMax = maxRows, 1000
	src := randrel.Generate(rng, cfg)
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2, -0.5, 3e18}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1}
	strs := []string{"", "NaN", "[1, 2)", "δ"}
	b := colbatch.New(edgeSchema)
	for r, t := range src.Tuples {
		pick := func(v value.Value) value.Value {
			if rng.Intn(4) == 0 {
				return value.Null
			}
			return v
		}
		i, s := t.Vals[0], t.Vals[1]
		if rng.Intn(3) == 0 {
			i = value.NewInt(ints[rng.Intn(len(ints))])
		}
		if rng.Intn(3) == 0 {
			s = value.NewString(strs[rng.Intn(len(strs))])
		}
		mix := value.NewInt(int64(r))
		if r%2 == 1 {
			mix = value.NewFloat(float64(r) + 0.5)
		}
		b.AppendTuple(tuple.Tuple{T: t.T, Vals: []value.Value{
			pick(i), pick(s),
			pick(value.NewFloat(floats[rng.Intn(len(floats))])),
			pick(value.NewBool(r%3 == 0)),
			pick(value.NewInterval(interval.New(t.T.Ts, t.T.Te+int64(r)))),
			value.Null,
			pick(mix),
		}})
	}
	return b
}

// rowsFrame encodes b as one binary rows frame.
func rowsFrame(b *colbatch.Batch) []byte {
	frame, err := appendFrame(nil, Frame{Frame: FrameRows, Batch: b}, &Writer{})
	if err != nil {
		panic(err)
	}
	return frame
}

// decodeRows reads data as a stream of one rows frame, through the path
// every hop decodes with.
func decodeRows(data []byte) (*colbatch.Batch, error) {
	f, err := NewDecoder(bytes.NewReader(data)).Next()
	return f.Batch, err
}

// sameRows compares the logically present rows of want with the dense
// batch got: row keys (values and valid time) and per-cell kinds.
func sameRows(t *testing.T, tag string, got, want *colbatch.Batch) {
	t.Helper()
	if got.Sel != nil {
		t.Fatalf("%s: decoded batch carries a selection vector", tag)
	}
	if got.Len() != want.NumRows() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: decoded %d rows × %d cols, want %d × %d", tag, got.Len(), len(got.Cols), want.NumRows(), len(want.Cols))
	}
	for c := range want.Cols {
		if got.Cols[c].Kind != want.Cols[c].Kind {
			t.Fatalf("%s: column %d declared %s, want %s", tag, c, got.Cols[c].Kind, want.Cols[c].Kind)
		}
	}
	for i := 0; i < got.Len(); i++ {
		row := want.RowAt(i)
		if g, w := got.AppendRowKey(nil, i), want.AppendRowKey(nil, row); !bytes.Equal(g, w) {
			t.Fatalf("%s: row %d drifted:\n% x\nvs\n% x", tag, i, g, w)
		}
		for c := range want.Cols {
			if g, w := got.Cols[c].Value(i).Kind(), want.Cols[c].Value(row).Kind(); g != w {
				t.Fatalf("%s: row %d column %d came back as %s, want %s", tag, i, c, g, w)
			}
		}
	}
}

// TestBatchFrameRoundTrip is the codec's property test: random batches
// over every kind and value edge survive encode → decode exactly, with a
// selection vector compacted away before encoding.
func TestBatchFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		b := edgeBatch(rng, round%40)
		got, err := decodeRows(rowsFrame(b))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameRows(t, "dense", got, b)

		var sel []int32
		for i := 0; i < b.Len(); i++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, int32(i))
			}
		}
		view := *b
		view.Sel = append([]int32{}, sel...) // non-nil even when nothing is selected
		got, err = decodeRows(rowsFrame(&view))
		if err != nil {
			t.Fatalf("round %d selected: %v", round, err)
		}
		sameRows(t, "selected", got, &view)
	}
}

// TestBatchFrameViews: a scan hands out views of a relation's columnar
// image, which share the image's validity bitmap. Whatever rows a view
// covers — a prefix ending inside a bitmap word, an offset window, rows
// whose ω neighbours lie outside it — the frame carries exactly that
// view's rows and ω bits.
func TestBatchFrameViews(t *testing.T) {
	b := edgeBatch(rand.New(rand.NewSource(3)), 300)
	for b.Len() < 200 {
		b.AppendBatch(b)
	}
	for _, r := range [][2]int{{0, 64}, {0, 100}, {0, 10}, {64, 128}, {3, 90}, {128, b.Len()}, {0, b.Len()}, {7, 7}} {
		var view colbatch.Batch
		b.SliceInto(&view, r[0], r[1])
		got, err := decodeRows(rowsFrame(&view))
		if err != nil {
			t.Fatalf("view %v: %v", r, err)
		}
		sameRows(t, "view", got, &view)
	}
}

// goldenBatch is a small fixed batch covering every column encoding.
func goldenBatch() *colbatch.Batch {
	b := colbatch.New(edgeSchema)
	rows := [][]value.Value{
		{value.NewInt(1), value.NewString("alpha"), value.NewFloat(0.5), value.NewBool(true), value.NewInterval(interval.New(1, 4)), value.Null, value.NewInt(10)},
		{value.NewInt(math.MinInt64), value.NewString(""), value.NewFloat(math.Inf(-1)), value.NewBool(false), value.Null, value.Null, value.NewFloat(2.5)},
		{value.Null, value.Null, value.Null, value.Null, value.Null, value.Null, value.Null},
		{value.NewInt(math.MaxInt64), value.NewString("δ (utf-8)"), value.NewFloat(2), value.NewBool(true), value.NewInterval(interval.New(-3, 9)), value.Null, value.NewFloat(7.75)},
	}
	for i, vals := range rows {
		b.AppendTuple(tuple.Tuple{Vals: vals, T: interval.New(int64(i), int64(i)+5)})
	}
	return b
}

// TestBatchFrameGolden pins the rows-frame encoding byte-for-byte: a
// codec change that breaks mixed-version clusters fails here before it
// ships. Regenerate deliberately (and bump BatchFrameVersion) with
// go test ./internal/wire -run Golden -update.
func TestBatchFrameGolden(t *testing.T) {
	got := rowsFrame(goldenBatch())
	path := filepath.Join("testdata", "batchframe_v2.bin")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rows-frame encoding drifted from the golden fixture (%d bytes vs %d); if intentional, bump BatchFrameVersion and regenerate with -update", len(got), len(want))
	}
	dec, err := decodeRows(want)
	if err != nil {
		t.Fatalf("decoding golden fixture: %v", err)
	}
	sameRows(t, "golden", dec, goldenBatch())
}

// reframe returns frame with mutate applied to its header and payload
// and the checksum recomputed, so the decoder gets past the CRC.
func reframe(frame []byte, mutate func(b []byte)) []byte {
	out := append([]byte(nil), frame[:len(frame)-4]...)
	mutate(out)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestBatchFrameDefects: every malformed frame is a structured error —
// ErrVersion for version skew, ErrCorrupt for the rest, the transport's
// io.ErrUnexpectedEOF for a stream that ends inside a frame — and a lying
// length prefix on a short stream does not size the read buffer.
func TestBatchFrameDefects(t *testing.T) {
	valid := rowsFrame(goldenBatch())
	flip := func(off int) []byte {
		c := append([]byte(nil), valid...)
		c[off] ^= 0xff
		return c
	}
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[4:], MaxFramePayload+1)
	lying := append([]byte(nil), valid[:frameHeaderLen+16]...)
	binary.LittleEndian.PutUint32(lying[4:], MaxFramePayload)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"version bump", reframe(valid, func(b []byte) { b[2]++ }), ErrVersion},
		{"bad magic", flip(0), ErrCorrupt},
		{"unknown kind", reframe(valid, func(b []byte) { b[3] = byte(len(frameKinds)) }), ErrCorrupt},
		{"payload bit flip", flip(len(valid) / 2), ErrCorrupt},
		{"checksum bit flip", flip(len(valid) - 1), ErrCorrupt},
		{"oversized length prefix", huge, ErrCorrupt},
		{"truncated payload", valid[:len(valid)/2], io.ErrUnexpectedEOF},
		{"lying length prefix", lying, io.ErrUnexpectedEOF},
		{"row count beyond payload", reframe(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[frameHeaderLen:], 1<<30) }), ErrCorrupt},
		{"unknown column kind", reframe(valid, func(b []byte) { b[frameHeaderLen+8] = 77 }), ErrCorrupt},
		{"kind/encoding mismatch", reframe(valid, func(b []byte) { b[frameHeaderLen+8+1] = colbatch.EncFloat }), ErrCorrupt},
		{"region length beyond payload", reframe(valid, func(b []byte) { binary.LittleEndian.PutUint32(b[frameHeaderLen+8+4:], 1<<20) }), ErrCorrupt},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewDecoder(bytes.NewReader(tc.data)).Next()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Errorf("%s: decoding a %d-byte stream allocated %d bytes", tc.name, len(tc.data), grew)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Decoder.Next error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestBatchFrameEncodeDefects: a frame the format cannot carry is refused
// with ErrEncode — never written with a truncated length — and leaves
// the destination buffer as it was.
func TestBatchFrameEncodeDefects(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+1)
	for name, f := range map[string]Frame{
		"column name over u16":  {Frame: FrameSchema, Columns: []string{long, "ts", "te"}, Types: []string{"int", "int", "int"}},
		"type name over u16":    {Frame: FrameSchema, Columns: []string{"a"}, Types: []string{long}},
		"column count over u16": {Frame: FrameSchema, Columns: make([]string, math.MaxUint16+1), Types: make([]string, math.MaxUint16+1)},
		"columns without types": {Frame: FrameSchema, Columns: []string{"a"}},
		"error code over u16":   {Frame: FrameError, Error: &Error{Code: long}},
		"error without object":  {Frame: FrameError},
		"rows without a batch":  {Frame: FrameRows},
		"unknown kind":          {Frame: "bogus"},
	} {
		dst, err := appendFrame([]byte("kept"), f, &Writer{})
		if !errors.Is(err, ErrEncode) || string(dst) != "kept" {
			t.Errorf("%s: appendFrame = %q, %v; want the buffer untouched and ErrEncode", name, dst, err)
		}
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf, MediaBatch).Write(Frame{Frame: FrameRows}); !errors.Is(err, ErrEncode) || buf.Len() != 0 {
		t.Errorf("Writer.Write of an unencodable frame wrote %d bytes, %v; want nothing and ErrEncode", buf.Len(), err)
	}
}

// FuzzDecodeBatchFrame: the stream decoder must never panic and never
// return a frame on malformed input; every failure wraps ErrCorrupt or
// ErrVersion or is the end of the input, and a batch that does decode
// survives the read path.
func FuzzDecodeBatchFrame(f *testing.F) {
	valid, err := os.ReadFile(filepath.Join("testdata", "batchframe_v2.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("TF"))
	for _, n := range []int{4, 8, 12, 24, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, off := range []int{0, 2, 3, 5, 8, 12, 16, 17, len(valid) / 2, len(valid) - 1} {
		f.Add(reframe(valid, func(b []byte) { b[off%len(b)] ^= 0xff }))
	}
	for _, req := range []Frame{ // the request kinds and the prepare answer
		{Frame: FrameQuery, Session: "s", Stmt: "q", Params: []value.Value{value.NewString("x"), value.Null, value.NewFloat(2)}},
		{Frame: FrameQuery, SQL: "SELECT a FROM r", Cut: sqlish.CutAggregate, Subst: map[string]string{"r": "__rp1_r"}},
		{Frame: FramePrepare, Session: "s", Stmt: "q", SQL: "SELECT a FROM p"},
		{Frame: FramePrepared, NumParams: 1, Columns: []string{"a", "ts", "te"}, Types: []string{"int", "int", "int"}},
		{Frame: FrameStage, Table: "__rp1_r"},
		{Frame: FrameUnstage, Table: "r"},
		{Frame: FrameAnalyze},
	} {
		data, _ := appendFrame(nil, req, &Writer{})
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			f, err := NewDecoder(bytes.NewReader(data)).Next()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unstructured decode error: %v", err)
				}
				if f.Frame != "" || f.Batch != nil {
					t.Fatalf("error with a non-zero frame %+v", f)
				}
				return
			}
			if b := f.Batch; b != nil {
				for i := 0; i < b.Len(); i++ {
					b.AppendRowKey(nil, i)
				}
			}
		}
		check(data)
		// The same bytes with the length prefix and checksum made right, so
		// that a mutated payload gets past them to the payload decoder.
		if len(data) >= frameHeaderLen+4 {
			check(reframe(data, func(b []byte) {
				binary.LittleEndian.PutUint32(b[4:], uint32(len(b)-frameHeaderLen))
			}))
		}
	})
}

// intBatch is a dense batch of n rows over two int columns.
func intBatch(n int) *colbatch.Batch {
	b := colbatch.New(schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindInt}))
	for i := 0; i < n; i++ {
		b.AppendTuple(tuple.Tuple{Vals: []value.Value{value.NewInt(int64(i)), value.NewInt(int64(-i))}, T: interval.New(int64(i), int64(i)+3)})
	}
	return b
}

// TestBatchFrameAllocs pins the steady-state cost of a frame: encoding a
// 1024-row int batch through a warm Writer allocates nothing, and
// decoding it allocates a handful of headers — never per row.
func TestBatchFrameAllocs(t *testing.T) {
	b := intBatch(1024)
	fw := NewWriter(io.Discard, MediaBatch)
	frame := Frame{Frame: FrameRows, Batch: b}
	if err := fw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { fw.Write(frame) }); n > 0 {
		t.Errorf("encoding a 1024-row int batch allocates %.0f times per frame, want 0", n)
	}

	stream := rowsFrame(b)
	r := bytes.NewReader(stream)
	dec := NewDecoder(r)
	dec.ReuseBuffers(make([][]byte, 1))
	n := testing.AllocsPerRun(50, func() {
		r.Reset(stream)
		if f, err := dec.Next(); err != nil || f.Batch.Len() != 1024 {
			t.Fatalf("decode: %v", err)
		}
	})
	if n > 6 {
		t.Errorf("decoding a 1024-row int batch allocates %.0f times per frame, want a constant handful", n)
	}
}

// frameStream encodes frames in media.
func frameStream(t *testing.T, media string, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewWriter(&buf, media)
	for _, f := range frames {
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDecoderStreamContract: the decoder passes the frames of a
// well-formed stream through unchanged and refuses, as ErrCorrupt, an
// error frame without its error object and a status frame whose row count
// disagrees with the rows carried. A status or error frame ends a stream,
// so one decoder reads the answers of a frame connection one after the
// other.
func TestDecoderStreamContract(t *testing.T) {
	b := intBatch(3)
	rowsFrame, carried := Frame{Frame: FrameRows, Batch: b}, int64(b.Len())
	schemaFrame := Frame{Frame: FrameSchema, Columns: []string{"a", "b", "ts", "te"}, Types: []string{"int", "int", "int", "int"}, CacheHit: true}
	plan := Frame{Frame: FramePlan, Plan: "Project a\n  SeqScan r", CacheHit: true}
	want := &Error{Code: "parse", Message: "unexpected token", Line: 2, Col: 7}
	dec := NewDecoder(bytes.NewReader(frameStream(t, MediaBatch,
		schemaFrame, rowsFrame, Frame{Frame: FrameStatus, RowCount: carried},
		schemaFrame, rowsFrame, Frame{Frame: FrameError, Error: want},
		plan, Frame{Frame: FrameStatus},
		schemaFrame, rowsFrame, rowsFrame, Frame{Frame: FrameStatus, RowCount: 2 * carried})))
	for answer := 0; answer < 4; answer++ {
		f, err := dec.Next()
		if answer == 2 {
			if err != nil || f.Plan != plan.Plan || !f.CacheHit {
				t.Fatalf("plan frame: %+v, %v", f, err)
			}
		} else if err != nil || f.Frame != FrameSchema || !f.CacheHit || strings.Join(f.Columns, ",") != "a,b,ts,te" || strings.Join(f.Types, ",") != "int,int,int,int" {
			t.Fatalf("answer %d: schema frame came back as %+v, %v", answer, f, err)
		}
		for f.Frame == FrameSchema || f.Frame == FrameRows || f.Frame == FramePlan {
			if f, err = dec.Next(); err != nil {
				t.Fatalf("answer %d: %v", answer, err)
			}
			if f.Frame == FrameRows {
				sameRows(t, "rows frame", f.Batch, b)
				if got := f.Batch.Schema.Attrs[1].Name; got != "b" {
					t.Fatalf("batch column named %q, want the schema frame's %q", got, "b")
				}
			}
		}
		if answer == 1 && (f.Error == nil || *f.Error != *want) {
			t.Fatalf("error frame: %+v", f.Error)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after the last answer: %v, want io.EOF", err)
	}

	for name, frames := range map[string][]Frame{
		"dropped rows frame":    {schemaFrame, {Frame: FrameStatus, RowCount: carried}},
		"duplicated rows frame": {schemaFrame, rowsFrame, rowsFrame, {Frame: FrameStatus, RowCount: carried}},
	} {
		dec := NewDecoder(bytes.NewReader(frameStream(t, MediaBatch, frames...)))
		var err error
		for err == nil {
			_, err = dec.Next()
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "status frame reports") {
			t.Errorf("%s: %v, want a row-count ErrCorrupt", name, err)
		}
	}
	// A body-less error frame: the binary frame with an empty payload.
	bodyless := reframe([]byte{frameMagic0, frameMagic1, BatchFrameVersion, 5, 0, 0, 0, 0, 0, 0, 0, 0}, func([]byte) {})
	if _, err := NewDecoder(bytes.NewReader(bodyless)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("body-less error frame: %v, want ErrCorrupt", err)
	}
}

// TestRequestFrames: query, prepare, prepared and the worker's stage,
// unstage and analyze frames round-trip, a parameter keeping its kind —
// NaN, a whole float, a period, ω, a string — and the decoded values
// owning their memory. A buffer a large request grew is dropped once the
// exchange ends, on both sides.
func TestRequestFrames(t *testing.T) {
	params := []value.Value{value.NewFloat(4), value.NewFloat(math.NaN()), value.NewInterval(interval.New(1, 5)),
		value.Null, value.NewString("Ann"), value.NewInt(-7), value.NewBool(true)}
	big := strings.Repeat("x", MaxKeptBuffer+1)
	var buf bytes.Buffer
	fw := NewWriter(&buf, MediaBatch)
	for _, f := range []Frame{
		{Frame: FrameQuery, Session: "s1", Stmt: "q", Params: params, BatchSize: 64},
		{Frame: FrameQuery, SQL: "SELECT 1", Cut: sqlish.CutBody, Subst: map[string]string{"r": "__rp7_r", "s": "__rp7_s"}},
		{Frame: FramePrepare, Session: "s", Stmt: "stmt-3", SQL: "SELECT a FROM p WHERE a >= $1"},
		{Frame: FramePrepared, NumParams: 2, Columns: []string{"a", "ts", "te"}, Types: []string{"int", "int", "int"}},
		{Frame: FrameStage, Table: "__rp7_r"},
		{Frame: FrameUnstage, Table: "c"},
		{Frame: FrameAnalyze},
		{Frame: FrameQuery, SQL: big},
	} {
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if cap(fw.buf) > MaxKeptBuffer {
		t.Errorf("the writer kept a %d-byte buffer after a request", cap(fw.buf))
	}
	dec := NewDecoder(&buf)
	ring := make([][]byte, 1)
	dec.ReuseBuffers(ring)
	f, err := dec.Next()
	if err != nil || f.Frame != FrameQuery || f.Session != "s1" || f.Stmt != "q" || f.SQL != "" || f.BatchSize != 64 || len(f.Params) != len(params) {
		t.Fatalf("query frame: %+v, %v", f, err)
	}
	for i, p := range f.Params {
		if p.Kind() != params[i].Kind() || (p.Compare(params[i]) != 0 && !(i == 1 && math.IsNaN(p.Float()))) {
			t.Errorf("$%d = %v (%s), want %v (%s)", i+1, p, p.Kind(), params[i], params[i].Kind())
		}
	}
	if f, err = dec.Next(); err != nil || f.SQL != "SELECT 1" || len(f.Params) != 0 || f.Cut != sqlish.CutBody || len(f.Subst) != 2 || f.Subst["s"] != "__rp7_s" {
		t.Fatalf("parameterless query frame: %+v, %v", f, err)
	}
	if f, err = dec.Next(); err != nil || f.Frame != FramePrepare || f.Session != "s" || f.Stmt != "stmt-3" || f.SQL != "SELECT a FROM p WHERE a >= $1" {
		t.Fatalf("prepare frame: %+v, %v", f, err)
	}
	if f, err = dec.Next(); err != nil || f.Frame != FramePrepared || f.NumParams != 2 || strings.Join(f.Columns, ",") != "a,ts,te" {
		t.Fatalf("prepared frame: %+v, %v", f, err)
	}
	for _, want := range []Frame{{Frame: FrameStage, Table: "__rp7_r"}, {Frame: FrameUnstage, Table: "c"}, {Frame: FrameAnalyze}} {
		if f, err = dec.Next(); err != nil || f.Frame != want.Frame || f.Table != want.Table {
			t.Fatalf("%s frame: %+v, %v", want.Frame, f, err)
		}
	}
	if f, err = dec.Next(); err != nil || len(f.SQL) != len(big) || cap(ring[0]) > MaxKeptBuffer {
		t.Fatalf("large query frame: %d bytes of SQL, %v; the ring kept a %d-byte buffer", len(f.SQL), err, cap(ring[0]))
	}
}

// TestDecoderRing: with a ring of n buffers a decoded batch stays intact
// until the nth following Next — frames that carry no rows do not use a
// turn up — the ring allocates once per slot, not again for a frame its
// slack absorbs, and serves a second decoder without allocating at all.
func TestDecoderRing(t *testing.T) {
	const ring, frames = 3, 10
	var stream []Frame
	var want []*colbatch.Batch
	stream = append(stream, Frame{Frame: FrameSchema, Columns: []string{"a", "b", "ts", "te"}, Types: []string{"int", "int", "int", "int"}})
	rows := 0
	for i := 0; i < frames; i++ {
		b := intBatch(200 + i%2) // sizes a slot's slack absorbs
		for r := range b.Cols[0].Ints {
			b.Cols[0].Ints[r] += int64(1000 * i)
		}
		want = append(want, b)
		stream = append(stream, Frame{Frame: FrameRows, Batch: b})
		rows += b.Len()
	}
	stream = append(stream, Frame{Frame: FrameStatus, RowCount: int64(rows)})
	data := frameStream(t, MediaBatch, stream...)

	slots := make([][]byte, ring)
	for pass := 0; pass < 2; pass++ {
		dec := NewDecoder(bytes.NewReader(data))
		dec.ReuseBuffers(slots)
		born := map[int]int{} // rows frame → the Next call that decoded it
		var got []*colbatch.Batch
		for call := 0; ; call++ {
			f, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			if f.Frame == FrameRows {
				born[len(got)] = call
				got = append(got, f.Batch)
			}
			for k, b := range got {
				if call-born[k] < ring {
					sameRows(t, fmt.Sprintf("pass %d, frame %d, %d calls on", pass, k, call-born[k]), b, want[k])
				}
			}
			if f.Frame == FrameStatus {
				break
			}
		}
		// Cold: one buffer a slot, after the schema frame's own small one.
		if got, most := dec.BufferAllocs(), (ring+1)*(1-pass); got > most {
			t.Errorf("pass %d: %d frames allocated %d buffers, want at most %d", pass, frames, got, most)
		}
	}
}
