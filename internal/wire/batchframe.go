package wire

import (
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
	"talign/internal/value"
)

// Media types of a frame stream. NDJSON is the default for any client
// that does not ask; a request whose Accept header names MediaBatch is
// answered in binary batch frames, and every node-to-node hop
// (/fragment exec answers, stage bodies) speaks them unconditionally.
const (
	// MediaNDJSON is the newline-delimited JSON frame stream.
	MediaNDJSON = "application/x-ndjson"
	// MediaBatch is the binary batch-frame stream.
	MediaBatch = "application/x-talign-batch"
)

// BatchFrameVersion is the batch-frame format version this build reads
// and writes; a frame of any other version is refused with ErrVersion.
const BatchFrameVersion = 1

// MaxFramePayload bounds one frame's payload, so a corrupt length prefix
// can never size an allocation.
const MaxFramePayload = 1 << 28

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

// AcceptsBatch reports whether an HTTP Accept header asks for batch
// frames.
func AcceptsBatch(accept string) bool { return strings.Contains(accept, MediaBatch) }

// A binary frame is an 8-byte header — magic "TF", version, kind, u32
// payload length — the payload, and a CRC-32 (IEEE) over header and
// payload. Integers are little-endian. Payloads by kind:
//
//	schema  u8 flags (bit 0 cache_hit), u8 0, u16 ncols,
//	        ncols × (u16 name length, u16 type length), names and types
//	rows    u32 rows, u16 ncols, u16 0,
//	        ncols × (u8 kind, u8 encoding, u16 0, u32 data, aux, bitmap lengths),
//	        TS and TE as rows × int64, then each column's data, aux and
//	        bitmap regions (colbatch.AppendRegions), every region 8-byte
//	        aligned from the payload start
//	plan    u8 flags (bit 0 cache_hit), plan text
//	status  u64 row count
//	error   u32 line, u32 col, u16 code length, u16 0, code, message
const (
	frameMagic0, frameMagic1 = 'T', 'F'
	frameHeaderLen           = 8
	batchColHeaderLen        = 16
)

// frameKinds maps the Frame* names to their binary kind byte (index).
var frameKinds = [...]string{1: FrameSchema, 2: FrameRows, 3: FramePlan, 4: FrameStatus, 5: FrameError}

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
	w       io.Writer
	enc     *json.Encoder  // NDJSON
	buf     []byte         // binary: the frame under construction
	compact colbatch.Batch // binary: scratch for compacting a selection away
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
// error is the transport's.
func (fw *Writer) Write(f Frame) error {
	if fw.enc != nil {
		return fw.enc.Encode(f)
	}
	buf, err := appendFrame(fw.buf[:0], f, &fw.compact)
	fw.buf = buf[:0]
	if err != nil {
		return err
	}
	_, err = fw.w.Write(buf)
	return err
}

// AppendFrame appends the binary encoding of f to dst — what a
// MediaBatch Writer writes — for a caller assembling a body in memory.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	var scratch colbatch.Batch
	return appendFrame(dst, f, &scratch)
}

// appendFrame appends the binary encoding of f to dst. compact is the
// caller's reusable scratch batch for selection-vector compaction. Every
// failure wraps ErrEncode and leaves dst as it was.
func appendFrame(dst []byte, f Frame, compact *colbatch.Batch) ([]byte, error) {
	kind, ok := kindByte(f.Frame)
	if !ok {
		return dst, encodef("unknown frame kind %q", f.Frame)
	}
	base := len(dst)
	// u16 checks that n fits the format's 16-bit count and length fields.
	u16 := func(n int, what string) error {
		if n > math.MaxUint16 {
			return encodef("%s frame: %s of %d exceeds %d", f.Frame, what, n, math.MaxUint16)
		}
		return nil
	}
	dst = append(dst, frameMagic0, frameMagic1, BatchFrameVersion, kind, 0, 0, 0, 0)
	switch f.Frame {
	case FrameSchema:
		if len(f.Types) != len(f.Columns) {
			return dst[:base], encodef("schema frame with %d columns but %d types", len(f.Columns), len(f.Types))
		}
		if err := u16(len(f.Columns), "column count"); err != nil {
			return dst[:base], err
		}
		for i := range f.Columns {
			if err := u16(max(len(f.Columns[i]), len(f.Types[i])), "name length"); err != nil {
				return dst[:base], err
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
	case FrameRows:
		b := f.Batch
		if b == nil {
			return dst[:base], encodef("rows frame without a batch")
		}
		if err := u16(len(b.Cols), "column count"); err != nil {
			return dst[:base], err
		}
		if b.Sel != nil {
			compact.ResetSchema(b.Schema)
			compact.AppendBatch(b)
			b = compact
		}
		dst = appendBatchPayload(dst, b)
	case FramePlan:
		dst = append(dst, flagByte(f.CacheHit))
		dst = append(dst, f.Plan...)
	case FrameStatus:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.RowCount))
	case FrameError:
		if f.Error == nil {
			return dst[:base], encodef("error frame without an error")
		}
		if err := u16(len(f.Error.Code), "code length"); err != nil {
			return dst[:base], err
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Error.Line))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Error.Col))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Error.Code)))
		dst = append(dst, 0, 0)
		dst = append(dst, f.Error.Code...)
		dst = append(dst, f.Error.Message...)
	}
	n := len(dst) - base - frameHeaderLen
	if n > MaxFramePayload {
		return dst[:base], encodef("%s frame payload of %d bytes exceeds the %d-byte frame limit", f.Frame, n, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[base+4:], uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
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

// Decoder reads a frame stream in either media type and enforces the
// stream contract both hops rely on: known frame kinds only, an error
// frame always carries its error object, and the terminal status
// frame's row count equals the rows the stream carried. Every violation
// is an error wrapping ErrCorrupt (ErrVersion for version skew);
// transport errors pass through unchanged, a stream that ends inside a
// frame reports io.ErrUnexpectedEOF and one that ends between frames
// io.EOF.
type Decoder struct {
	r     io.Reader
	dec   *json.Decoder // NDJSON
	ring  [][]byte      // binary: the caller's reused frame buffers (ReuseBuffers)
	next  int           // the ring slot the next frame is read into
	made  int           // binary: frame buffers allocated so far
	names []string      // visible column names of the last schema frame
	rows  int64
}

// NewDecoder returns a frame decoder for a stream of the given media
// type (MediaBatch selects binary frames, anything else NDJSON, whose
// numbers decode as json.Number).
func NewDecoder(r io.Reader, media string) *Decoder {
	if media == MediaBatch {
		return &Decoder{r: r}
	}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return &Decoder{r: r, dec: dec}
}

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
	if d.dec != nil {
		if err := d.dec.Decode(&f); err != nil {
			var se *json.SyntaxError
			var te *json.UnmarshalTypeError
			if errors.As(err, &se) || errors.As(err, &te) {
				return Frame{}, corruptf("bad NDJSON frame: %v", err)
			}
			return Frame{}, err
		}
	} else if err := d.nextBinary(&f); err != nil {
		return Frame{}, err
	}
	switch f.Frame {
	case FrameSchema, FramePlan:
	case FrameRows:
		if f.Batch != nil {
			d.rows += int64(f.Batch.Len())
		} else {
			d.rows += int64(len(f.Rows))
		}
	case FrameStatus:
		if f.RowCount != d.rows {
			return Frame{}, corruptf("status frame reports %d rows, the stream carried %d", f.RowCount, d.rows)
		}
	case FrameError:
		if f.Error == nil {
			return Frame{}, corruptf("error frame without an error object")
		}
	default:
		return Frame{}, corruptf("unexpected %q frame", f.Frame)
	}
	return f, nil
}

// nextBinary reads one binary frame into f.
func (d *Decoder) nextBinary(f *Frame) error {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return err // io.EOF between frames, io.ErrUnexpectedEOF inside the header
	}
	kind, n, err := parseFrameHeader(hdr[:])
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
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
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
		if len(p) < 4 {
			return corruptf("schema frame truncated")
		}
		ncols := int(binary.LittleEndian.Uint16(p[2:]))
		lens := p[4:]
		if len(lens) < ncols*4 {
			return corruptf("schema frame truncated")
		}
		blob := lens[ncols*4:]
		total := 0
		for i := 0; i < ncols*2; i++ {
			total += int(binary.LittleEndian.Uint16(lens[i*2:]))
		}
		if total != len(blob) {
			return corruptf("schema frame names are %d bytes, header says %d", len(blob), total)
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
		d.names = f.Columns[:max(ncols-2, 0)]
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
	}
	return nil
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
