package wire

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Media types of a frame stream. /query/stream answers NDJSON; frame
// connections (GET /frames) — the client hop and the coordinator ↔
// worker hop alike — speak binary batch frames.
const (
	// MediaNDJSON is the newline-delimited JSON frame stream.
	MediaNDJSON = "application/x-ndjson"
	// MediaBatch is the binary batch-frame stream.
	MediaBatch = "application/x-talign-batch"
)

// BatchFrameVersion is the batch-frame format version this build reads
// and writes; a frame of any other version is refused with ErrVersion.
const BatchFrameVersion = 2

// MaxFramePayload bounds one frame's payload, so a corrupt length prefix
// can never size an allocation.
const MaxFramePayload = 1 << 28

// MaxKeptBuffer bounds the frame buffer a Writer or a Decoder's ring slot
// keeps once an exchange ends: one a large frame grew past it is dropped.
const MaxKeptBuffer = 1 << 20

// ErrCorrupt is wrapped by every frame-stream decoding failure caused by
// invalid bytes or an invalid frame sequence: bad magic, truncated or
// oversized frames, checksum mismatches, malformed payloads, an error
// frame without an error object, a status frame whose row count
// disagrees with the rows the stream carried.
var ErrCorrupt = errors.New("corrupt frame stream")

// ErrVersion is wrapped when a batch frame carries a format version this
// build does not speak.
var ErrVersion = errors.New("unsupported batch-frame version")

// ErrEncode is wrapped when a frame cannot be encoded as a batch frame:
// a payload over MaxFramePayload, a name or code longer than its u16
// length field, a rows frame without a batch. Nothing of the frame was
// written, so the stream is still well-formed and its writer can end it
// with an error frame.
var ErrEncode = errors.New("frame cannot be encoded")

func encodef(format string, args ...any) error {
	return fmt.Errorf("wire: "+format+": %w", append(args, ErrEncode)...)
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("wire: "+format+": %w", append(args, ErrCorrupt)...)
}

// A binary frame is an 8-byte header — magic "TF", version, kind, u32
// payload length — the payload, and a CRC-32 (IEEE) over header and
// payload. Integers are little-endian. Payloads by kind:
//
//	schema   u8 flags (bit 0 cache_hit), u8 0, u16 ncols,
//	         ncols × (u16 name length, u16 type length), names and types
//	rows     u32 rows, u16 ncols, u16 0,
//	         ncols × (u8 kind, u8 encoding, u16 0, u32 data, aux, bitmap lengths),
//	         TS and TE as rows × int64, then each column's data, aux and
//	         bitmap regions (colbatch.AppendRegions), every region 8-byte
//	         aligned from the payload start
//	plan     u8 flags (bit 0 cache_hit), plan text
//	status   u64 row count
//	error    u32 line, u32 col, u16 code length, u16 0, code, message
//	query    u32 batch size, u8 cut, u8 0, u16 substitution length, a
//	         statement whose sql is followed by the substitution (table
//	         and staged name, each pair NUL-separated), then the
//	         parameters as a one-row rows payload: one column per
//	         parameter, of the parameter's kind (ω in an untyped column)
//	prepare  a statement
//	prepared u16 parameter count, then a schema payload
//	stage    (9), unstage (10), analyze (11): u16 table-name length, the
//	         name (analyze: empty for every table); a stage frame is
//	         followed by the relation's schema, rows and status frames
//
// where a statement is u16 session length, u16 name length, u32 sql
// length, then session, name and sql, zero-padded to a multiple of 8
// bytes (a query frame names the prepared statement it runs, or none).
const (
	frameMagic0, frameMagic1 = 'T', 'F'
	frameHeaderLen           = 8
	batchColHeaderLen        = 16
)

// frameKinds maps the Frame* names to their binary kind byte (index).
var frameKinds = [...]string{1: FrameSchema, 2: FrameRows, 3: FramePlan, 4: FrameStatus, 5: FrameError, 6: FrameQuery, 7: FramePrepare, 8: FramePrepared,
	9: FrameStage, 10: FrameUnstage, 11: FrameAnalyze}

// endsExchange reports whether a frame kind ends an exchange: a request or an answer's last frame.
func endsExchange(k string) bool {
	return k != FrameSchema && k != FrameRows && k != FramePlan
}

func kindByte(name string) (uint8, bool) {
	for k, n := range frameKinds {
		if n == name && k > 0 {
			return uint8(k), true
		}
	}
	return 0, false
}

// Writer encodes frames onto a stream in one of the two media types.
// The binary encoder reuses one buffer across frames, so steady-state
// encoding allocates nothing per frame.
type Writer struct {
	w     io.Writer
	enc   *json.Encoder  // NDJSON
	buf   []byte         // binary: the frame under construction
	batch colbatch.Batch // binary: a rows batch compacted, or a query's parameter row
	attrs []schema.Attr  // binary: the parameter row's schema
	subst []byte         // binary: a query's substitution
}

// NewWriter returns a frame writer for media (MediaBatch selects binary
// frames, anything else NDJSON).
func NewWriter(w io.Writer, media string) *Writer {
	if media == MediaBatch {
		return &Writer{w: w}
	}
	return &Writer{w: w, enc: json.NewEncoder(w)}
}

// Write encodes one frame. A binary rows frame carries f.Batch (its
// selection vector, if any, is compacted away first); an NDJSON rows
// frame carries f.Rows. A binary frame that cannot be encoded fails with
// an error wrapping ErrEncode before any byte is written; every other
// error is the transport's; a binary frame is one underlying Write.
func (fw *Writer) Write(f Frame) error {
	if fw.enc != nil {
		return fw.enc.Encode(f)
	}
	buf, err := appendFrame(fw.buf[:0], f, fw)
	fw.buf = buf[:0]
	if err == nil {
		_, err = fw.w.Write(buf)
	}
	if endsExchange(f.Frame) && cap(fw.buf) > MaxKeptBuffer {
		fw.buf = nil
	}
	return err
}

// appendFrame appends the binary encoding of f to dst, building batches
// in fw's scratch. Every failure wraps ErrEncode and leaves dst as it was.
func appendFrame(dst []byte, f Frame, fw *Writer) ([]byte, error) {
	kind, ok := kindByte(f.Frame)
	if !ok {
		return dst, encodef("unknown frame kind %q", f.Frame)
	}
	base := len(dst)
	var err error
	dst = append(dst, frameMagic0, frameMagic1, BatchFrameVersion, kind, 0, 0, 0, 0)
	switch f.Frame {
	case FrameSchema:
		dst, err = appendSchemaPayload(dst, &f)
	case FrameRows:
		b := f.Batch
		if b == nil {
			return dst[:base], encodef("rows frame without a batch")
		}
		if err := checkU16(&f, len(b.Cols), "column count"); err != nil {
			return dst[:base], err
		}
		if b.Sel != nil {
			fw.batch.ResetSchema(b.Schema)
			fw.batch.AppendBatch(b)
			b = &fw.batch
		}
		dst = appendBatchPayload(dst, b)
	case FramePlan:
		dst = append(append(dst, flagByte(f.CacheHit)), f.Plan...)
	case FrameStatus:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.RowCount))
	case FrameError:
		if f.Error == nil {
			return dst[:base], encodef("error frame without an error")
		}
		if err := checkU16(&f, len(f.Error.Code), "code length"); err != nil {
			return dst[:base], err
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Error.Line))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Error.Col))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Error.Code)))
		dst = append(dst, 0, 0)
		dst = append(dst, f.Error.Code...)
		dst = append(dst, f.Error.Message...)
	case FrameQuery:
		if f.BatchSize < 0 || f.BatchSize > math.MaxUint32 || len(f.Params) > math.MaxUint16 {
			return dst[:base], encodef("query frame: batch size %d or %d parameters out of range", f.BatchSize, len(f.Params))
		}
		fw.subst = fw.subst[:0]
		for t, staged := range f.Subst {
			if len(fw.subst) > 0 {
				fw.subst = append(fw.subst, 0)
			}
			fw.subst = append(append(append(fw.subst, t...), 0), staged...)
		}
		if err = checkU16(&f, len(fw.subst), "substitution length"); err != nil {
			return dst[:base], err
		}
		dst = append(binary.LittleEndian.AppendUint32(dst, uint32(f.BatchSize)), uint8(f.Cut), 0)
		dst, err = appendStatement(binary.LittleEndian.AppendUint16(dst, uint16(len(fw.subst))), &f, fw.subst)
		// The parameters are one row whose columns carry their kinds.
		fw.attrs = fw.attrs[:0]
		for _, p := range f.Params {
			fw.attrs = append(fw.attrs, schema.Attr{Type: p.Kind()})
		}
		fw.batch.ResetSchema(schema.Schema{Attrs: fw.attrs})
		fw.batch.AppendTuple(tuple.Tuple{Vals: f.Params})
		dst = appendBatchPayload(dst, &fw.batch)
	case FramePrepare:
		dst, err = appendStatement(dst, &f, nil)
	case FramePrepared:
		dst, err = appendSchemaPayload(binary.LittleEndian.AppendUint16(dst, uint16(f.NumParams)), &f)
	case FrameStage, FrameUnstage, FrameAnalyze:
		if err = checkU16(&f, len(f.Table), "table name length"); err == nil {
			dst = append(binary.LittleEndian.AppendUint16(dst, uint16(len(f.Table))), f.Table...)
		}
	}
	n := len(dst) - base - frameHeaderLen
	if err == nil && n > MaxFramePayload {
		err = encodef("%s frame payload of %d bytes exceeds the %d-byte frame limit", f.Frame, n, MaxFramePayload)
	}
	if err != nil {
		return dst[:base], err
	}
	binary.LittleEndian.PutUint32(dst[base+4:], uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
}

// checkU16 checks that n fits a 16-bit count or length field.
func checkU16(f *Frame, n int, what string) error {
	if n > math.MaxUint16 {
		return encodef("%s frame: %s of %d exceeds %d", f.Frame, what, n, math.MaxUint16)
	}
	return nil
}

// appendSchemaPayload appends the schema layout of f's columns and types.
func appendSchemaPayload(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Types) != len(f.Columns) {
		return dst, encodef("%s frame with %d columns but %d types", f.Frame, len(f.Columns), len(f.Types))
	}
	if err := checkU16(f, max(len(f.Columns), f.NumParams), "column or parameter count"); err != nil {
		return dst, err
	}
	for i := range f.Columns {
		if err := checkU16(f, max(len(f.Columns[i]), len(f.Types[i])), "name length"); err != nil {
			return dst, err
		}
	}
	dst = append(dst, flagByte(f.CacheHit), 0)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Columns)))
	for i := range f.Columns {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Columns[i])))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Types[i])))
	}
	for i := range f.Columns {
		dst = append(dst, f.Columns[i]...)
		dst = append(dst, f.Types[i]...)
	}
	return dst, nil
}

// appendStatement appends a query or prepare frame's statement, its sql
// followed by tail, padded so that a parameter row after it keeps its
// regions 8-byte aligned.
func appendStatement(dst []byte, f *Frame, tail []byte) ([]byte, error) {
	if err := checkU16(f, max(len(f.Session), len(f.Stmt)), "session or statement name length"); err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Session)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Stmt)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.SQL)))
	dst = append(append(append(append(dst, f.Session...), f.Stmt...), f.SQL...), tail...)
	for n := 8 + len(f.Session) + len(f.Stmt) + len(f.SQL) + len(tail); n%8 != 0; n++ {
		dst = append(dst, 0)
	}
	return dst, nil
}

func flagByte(cacheHit bool) byte {
	if cacheHit {
		return 1
	}
	return 0
}

// appendBatchPayload appends the rows-frame payload of a dense batch.
func appendBatchPayload(dst []byte, b *colbatch.Batch) []byte {
	// Exact for fixed-width columns, a floor for the rest: a fresh
	// stream's buffer is sized by its first frame, not by doubling.
	dst = slices.Grow(dst, 8+(batchColHeaderLen+8)*len(b.Cols)+8*b.Len()*(2+len(b.Cols))+4)
	base := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Len()))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b.Cols)))
	dst = append(dst, 0, 0)
	hdr := len(dst)
	for range b.Cols {
		dst = append(dst, make([]byte, batchColHeaderLen)...)
	}
	dst = colbatch.AppendInt64s(dst, b.TS)
	dst = colbatch.AppendInt64s(dst, b.TE)
	for c := range b.Cols {
		var cr colbatch.ColRegions
		dst, cr = b.Cols[c].AppendRegions(dst, base)
		h := dst[hdr+c*batchColHeaderLen:]
		h[0], h[1] = uint8(b.Cols[c].Kind), cr.Enc
		binary.LittleEndian.PutUint32(h[4:], uint32(cr.DataLen))
		binary.LittleEndian.PutUint32(h[8:], uint32(cr.AuxLen))
		binary.LittleEndian.PutUint32(h[12:], uint32(cr.NullsLen))
	}
	return dst
}

// Decoder reads a binary frame stream and enforces the stream contract
// every hop relies on: known frame kinds only, well-formed payloads (an
// error frame always carries its error object), and, in an answer that
// carried a schema or rows frame, a terminal status frame whose row count
// equals the rows the stream carried (a bare status frame — answering a
// worker's stage, unstage or analyze, or after a plan frame — reports any
// count). Every
// violation is an error wrapping ErrCorrupt (ErrVersion for version
// skew); transport errors pass through unchanged, a stream that ends
// inside a frame reports io.ErrUnexpectedEOF and one that ends between
// frames io.EOF. A status or error frame ends a stream and resets that
// state, so one Decoder reads the many answers of a frame connection.
type Decoder struct {
	r     io.Reader
	ring  [][]byte // the caller's reused frame buffers (ReuseBuffers)
	next  int      // the ring slot the next frame is read into
	made  int      // frame buffers allocated so far
	names []string // visible column names of the last schema frame
	rows  int64
	tally bool                 // the exchange carried a schema or rows frame: its status frame counts them
	hdr   [frameHeaderLen]byte // the header being read
}

// NewDecoder returns a decoder of the binary frame stream r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// ReuseBuffers makes the decoder read binary frames into the caller's
// ring of buffers, one slot per rows frame in turn, allocating a slot
// only when a frame does not fit it: a decoded Batch is then valid until
// the len(ring)th following call to Next, and the ring may go to another
// decoder once this one is done. Without it every rows frame owns its
// memory and may be retained.
func (d *Decoder) ReuseBuffers(ring [][]byte) { d.ring = ring }

// BufferAllocs reports how many frame buffers the decoder has allocated:
// without a ring, one per frame.
func (d *Decoder) BufferAllocs() int { return d.made }

// Next decodes and validates the next frame.
func (d *Decoder) Next() (Frame, error) {
	var f Frame
	if err := d.nextBinary(&f); err != nil {
		return Frame{}, err
	}
	switch f.Frame {
	case FrameSchema:
		d.tally = true
	case FrameRows:
		d.rows, d.tally = d.rows+int64(f.Batch.Len()), true
	case FrameStatus:
		if d.tally && f.RowCount != d.rows {
			return Frame{}, corruptf("status frame reports %d rows, the stream carried %d", f.RowCount, d.rows)
		}
	}
	if endsExchange(f.Frame) {
		d.rows, d.names, d.tally = 0, nil, false
		for i := range d.ring {
			if cap(d.ring[i]) > MaxKeptBuffer {
				d.ring[i] = nil
			}
		}
	}
	return f, nil
}

// nextBinary reads one binary frame into f.
func (d *Decoder) nextBinary(f *Frame) error {
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return err // io.EOF between frames, io.ErrUnexpectedEOF inside the header
	}
	kind, n, err := parseFrameHeader(hdr)
	if err != nil {
		return err
	}
	// Only a rows frame's batch aliases its buffer, so only rows frames
	// move the ring on; the slot that is up next holds a dead batch.
	var buf []byte
	var slot *[]byte
	if len(d.ring) > 0 {
		slot = &d.ring[d.next]
		buf = (*slot)[:0]
		if kind == FrameRows {
			d.next = (d.next + 1) % len(d.ring)
		}
	}
	// A frame of up to 1 MiB is read into one exact allocation; beyond
	// that the buffer grows no faster than bytes arrive, so a lying prefix
	// on a short stream cannot size a large allocation. A ring slot gets
	// an eighth of slack, so that the frames of one stream, which differ
	// by a bitmap word or a few strings, fit the slot they come round to.
	for want := n + 4; len(buf) < want; {
		step := min(want-len(buf), max(len(buf), 1<<20))
		if cap(buf)-len(buf) < step {
			size := len(buf) + step
			room := size
			if slot != nil {
				room += size / 8
			}
			grown := make([]byte, size, room)
			d.made++
			copy(grown, buf)
			buf = grown
		} else {
			buf = buf[:len(buf)+step]
		}
		if _, err := io.ReadFull(d.r, buf[len(buf)-step:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	if slot != nil {
		*slot = buf
	}
	payload := buf[:n]
	sum := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
	if stored := binary.LittleEndian.Uint32(buf[n:]); stored != sum {
		return corruptf("%s frame checksum mismatch (stored %08x, computed %08x)", kind, stored, sum)
	}
	return d.decodePayload(f, kind, payload)
}

// parseFrameHeader validates a frame header and returns the frame kind
// and payload length.
func parseFrameHeader(hdr []byte) (kind string, n int, err error) {
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return "", 0, corruptf("bad frame magic %q", hdr[:2])
	}
	if hdr[2] != BatchFrameVersion {
		return "", 0, fmt.Errorf("wire: batch-frame version %d, this build speaks %d: %w", hdr[2], BatchFrameVersion, ErrVersion)
	}
	if int(hdr[3]) >= len(frameKinds) || frameKinds[hdr[3]] == "" {
		return "", 0, corruptf("unknown frame kind %d", hdr[3])
	}
	length := binary.LittleEndian.Uint32(hdr[4:])
	if length > MaxFramePayload {
		return "", 0, corruptf("frame length %d exceeds the %d-byte frame limit", length, MaxFramePayload)
	}
	return frameKinds[hdr[3]], int(length), nil
}

// decodePayload decodes one checksummed payload into f.
func (d *Decoder) decodePayload(f *Frame, kind string, p []byte) error {
	f.Frame = kind
	switch kind {
	case FrameSchema:
		if err := decodeSchemaPayload(f, p); err != nil {
			return err
		}
		d.names = f.Columns[:max(len(f.Columns)-2, 0)]
	case FrameRows:
		b, err := decodeBatchPayload(p, d.names)
		if err != nil {
			return err
		}
		f.Batch = b
	case FramePlan:
		if len(p) < 1 {
			return corruptf("plan frame truncated")
		}
		f.CacheHit, f.Plan = p[0]&1 != 0, string(p[1:])
	case FrameStatus:
		if len(p) != 8 {
			return corruptf("status frame payload is %d bytes, want 8", len(p))
		}
		f.RowCount = int64(binary.LittleEndian.Uint64(p))
	case FrameError:
		if len(p) < 12 || len(p)-12 < int(binary.LittleEndian.Uint16(p[8:])) {
			return corruptf("error frame truncated")
		}
		cl := int(binary.LittleEndian.Uint16(p[8:]))
		f.Error = &Error{
			Code:    string(p[12 : 12+cl]),
			Message: string(p[12+cl:]),
			Line:    int(binary.LittleEndian.Uint32(p)),
			Col:     int(binary.LittleEndian.Uint32(p[4:])),
		}
	case FrameQuery:
		if len(p) < 8 {
			return corruptf("query frame truncated")
		}
		f.BatchSize, f.Cut = int(binary.LittleEndian.Uint32(p)), sqlish.Cut(p[4])
		rest, subst, err := decodeStatement(f, p[8:], int(binary.LittleEndian.Uint16(p[6:])))
		if subst != "" {
			pairs := strings.Split(subst, "\x00")
			if len(pairs)%2 != 0 {
				return corruptf("query frame: substitution of %d names", len(pairs))
			}
			f.Subst = make(map[string]string, len(pairs)/2)
			for i := 0; i < len(pairs); i += 2 {
				f.Subst[pairs[i]] = pairs[i+1]
			}
		}
		var b *colbatch.Batch
		if err == nil {
			b, err = decodeBatchPayload(rest, nil)
		}
		if err == nil && b.Len() != 1 {
			err = corruptf("query frame carries %d parameter rows, want 1", b.Len())
		}
		if err != nil {
			return err
		}
		f.Params = make([]value.Value, len(b.Cols))
		for c := range b.Cols {
			f.Params[c] = b.Cols[c].Value(0)
		}
	case FramePrepare:
		if rest, _, err := decodeStatement(f, p, 0); err != nil || len(rest) != 0 {
			return cmp.Or(err, corruptf("prepare frame: %d trailing bytes", len(rest)))
		}
	case FramePrepared:
		if len(p) < 2 {
			return corruptf("prepared frame truncated")
		}
		f.NumParams = int(binary.LittleEndian.Uint16(p))
		return decodeSchemaPayload(f, p[2:])
	case FrameStage, FrameUnstage, FrameAnalyze:
		if len(p) < 2 || len(p)-2 != int(binary.LittleEndian.Uint16(p)) {
			return corruptf("%s frame of %d bytes does not hold its table name", kind, len(p))
		}
		f.Table = string(p[2:])
	}
	return nil
}

// decodeSchemaPayload decodes a schema layout into f's columns, types and
// cache flag.
func decodeSchemaPayload(f *Frame, p []byte) error {
	if len(p) < 4 {
		return corruptf("%s frame truncated", f.Frame)
	}
	ncols := int(binary.LittleEndian.Uint16(p[2:]))
	lens := p[4:]
	if len(lens) < ncols*4 {
		return corruptf("%s frame truncated", f.Frame)
	}
	blob := lens[ncols*4:]
	total := 0
	for i := 0; i < ncols*2; i++ {
		total += int(binary.LittleEndian.Uint16(lens[i*2:]))
	}
	if total != len(blob) {
		return corruptf("%s frame names are %d bytes, header says %d", f.Frame, len(blob), total)
	}
	// One string holds every name and type; the slices cut it up.
	text, strs := string(blob), make([]string, ncols*2)
	f.Columns, f.Types = strs[:ncols:ncols], strs[ncols:]
	for i := 0; i < ncols; i++ {
		nl := int(binary.LittleEndian.Uint16(lens[i*4:]))
		tl := int(binary.LittleEndian.Uint16(lens[i*4+2:]))
		f.Columns[i], f.Types[i], text = text[:nl], text[nl:nl+tl], text[nl+tl:]
	}
	f.CacheHit = p[0]&1 != 0
	return nil
}

// decodeStatement decodes the statement part of a query or prepare frame
// into f and returns the tail of tailLen bytes after its sql and what
// follows its padding.
func decodeStatement(f *Frame, p []byte, tailLen int) ([]byte, string, error) {
	if len(p) < 8 {
		return nil, "", corruptf("%s frame truncated", f.Frame)
	}
	sl, nl := int(binary.LittleEndian.Uint16(p)), int(binary.LittleEndian.Uint16(p[2:]))
	ql := int(binary.LittleEndian.Uint32(p[4:]))
	end := 8 + sl + nl + ql + tailLen
	if ql > len(p) || (end+7)&^7 > len(p) {
		return nil, "", corruptf("%s frame of %d bytes cannot hold a %d-byte statement", f.Frame, len(p), end)
	}
	names := string(p[8 : 8+sl+nl])
	f.Session, f.Stmt = names[:sl], names[sl:]
	f.SQL = string(p[8+sl+nl : end-tailLen])
	return p[(end+7)&^7:], string(p[end-tailLen : end]), nil
}

// decodeBatchPayload decodes a rows-frame payload. names, when it has
// one entry per column, names the batch schema's attributes; the kinds
// always come from the payload.
func decodeBatchPayload(p []byte, names []string) (*colbatch.Batch, error) {
	if len(p) < 8 {
		return nil, corruptf("rows frame truncated")
	}
	rows := int(binary.LittleEndian.Uint32(p))
	ncols := int(binary.LittleEndian.Uint16(p[4:]))
	off := 8 + ncols*batchColHeaderLen
	if off > len(p) || rows > (len(p)-off)/16 {
		return nil, corruptf("rows frame of %d bytes cannot hold %d rows × %d columns", len(p), rows, ncols)
	}
	region := func(n int, what string) ([]byte, error) {
		off = (off + 7) &^ 7
		if off > len(p) || n > len(p)-off {
			return nil, corruptf("rows frame: %s region [%d, +%d) exceeds the %d-byte payload", what, off, n, len(p))
		}
		off += n
		return p[off-n : off], nil
	}
	tsb, err := region(rows*8, "ts")
	if err != nil {
		return nil, err
	}
	teb, err := region(rows*8, "te")
	if err != nil {
		return nil, err
	}
	attrs := make([]schema.Attr, ncols)
	cols := make([]colbatch.Vec, ncols)
	for c := range cols {
		h := p[8+c*batchColHeaderLen:]
		if len(names) == ncols {
			attrs[c].Name = names[c]
		}
		attrs[c].Type = value.Kind(h[0])
		if attrs[c].Type > value.KindInterval {
			return nil, corruptf("rows frame: column %d has unknown kind %d", c, h[0])
		}
		var regs [3][]byte
		for i := range regs {
			if regs[i], err = region(int(binary.LittleEndian.Uint32(h[4+i*4:])), "column"); err != nil {
				return nil, err
			}
		}
		if cols[c], err = colbatch.DecodeRegions(h[1], attrs[c].Type, rows, regs[0], regs[1], regs[2]); err != nil {
			return nil, corruptf("rows frame: column %d: %v", c, err)
		}
	}
	if off != len(p) {
		return nil, corruptf("rows frame: %d trailing bytes", len(p)-off)
	}
	return colbatch.NewFromParts(schema.Schema{Attrs: attrs}, cols, colbatch.DecodeInt64s(tsb, rows), colbatch.DecodeInt64s(teb, rows)), nil
}
