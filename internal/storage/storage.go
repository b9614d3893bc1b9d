// Package storage is the persistence layer: interval-partitioned
// columnar segments on disk, a checksummed catalog manifest, and a
// write-ahead log, so a talignd restart serves the same bytes it served
// before the restart.
//
// # Layout
//
// A data directory holds one manifest (manifest.bin), one write-ahead
// log (wal.log) and any number of segment files (seg-NNNNNNNN.tsg).
// A segment is a self-contained columnar encoding of one valid-time
// partition of a table: one typed region per attribute column (flat
// little-endian int64/float64 arrays, offset+blob string regions,
// byte-per-row bools, parallel start/end arrays for interval columns,
// tagged cells for heterogeneous columns), optional packed validity
// bitmaps, the TS/TE valid-time regions, and a zone map (min/max TS/TE,
// per-column min/max, row count) in the header. Regions are 8-byte
// aligned, so the int64/float64/TS/TE/bitmap regions of a memory-mapped
// segment alias directly into colbatch.Vec storage with no copy on
// little-endian hosts; the decoder falls back to copying elsewhere.
//
// # Durability protocol
//
// Tables become durable through the WAL: CreateTable writes and syncs
// the segment files first, then appends one create-table record to the
// WAL (the commit point). DropTable is a single WAL record. Every record
// carries a sequence number, a length and a CRC; replay stops at the
// first torn record (short or failing its CRC) and truncates the tail,
// but refuses to open a log holding a whole, CRC-valid record it cannot
// decode. After a failed WAL write the store commits nothing more until
// it is reopened (fail-stop). Checkpoint folds the create and drop
// records into a fresh manifest (written to a temp file, synced, then
// atomically renamed) and truncates the WAL; records with sequence
// numbers at or below the manifest's are skipped on replay, so a crash
// between manifest rename and WAL truncation only replays no-ops.
// Segment files not referenced by manifest + WAL are orphans from
// interrupted CreateTables and are deleted on Open.
//
// Decoding never trusts the bytes: magic, version, region bounds and
// checksums are validated, and every failure surfaces as a structured
// error wrapping ErrCorrupt (or ErrVersion for format-version skew) —
// never a panic. The sqlish layer maps these to error code "internal".
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"talign/internal/colbatch"
	"talign/internal/value"
)

// Format identifiers. Bumping a version makes older binaries reject
// newer files loudly instead of misreading them.
const (
	segMagic = "TALIGNSG"
	manMagic = "TALIGNMF"

	// SegmentVersion is the on-disk segment format version this build
	// reads and writes.
	SegmentVersion = 1
	// ManifestVersion is the manifest format version.
	ManifestVersion = 1
)

// ErrCorrupt is wrapped by every decoding failure caused by invalid
// bytes: bad magic, out-of-bounds regions, checksum mismatches.
var ErrCorrupt = errors.New("corrupt on-disk data")

// ErrVersion is wrapped when a file's format version is not the one
// this build speaks; the data may be fine, the reader is just too old
// or too new.
var ErrVersion = errors.New("unsupported on-disk format version")

// corruptf builds a corruption error with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("storage: "+format+": %w", append(args, ErrCorrupt)...)
}

// frame wraps a body in the common file framing: magic, version,
// body length, body, then a CRC-32 (IEEE) over everything before the
// checksum field.
func frame(magic string, version uint32, body []byte) []byte {
	out := make([]byte, 0, len(magic)+12+len(body))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// unframe validates the framing and returns the body. The returned
// slice aliases data.
func unframe(magic string, version uint32, data []byte, what string) ([]byte, error) {
	head := len(magic) + 8
	if len(data) < head+4 {
		return nil, corruptf("%s: %d bytes is shorter than any valid file", what, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, corruptf("%s: bad magic %q", what, data[:len(magic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return nil, fmt.Errorf("storage: %s: format version %d, this build speaks %d: %w", what, v, version, ErrVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[len(magic)+4:]))
	if n < 0 || n > len(data)-head-4 {
		return nil, corruptf("%s: body length %d exceeds file size %d", what, n, len(data))
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != sum {
		return nil, corruptf("%s: checksum mismatch (stored %08x, computed %08x)", what, sum, got)
	}
	if n != len(data)-head-4 {
		return nil, corruptf("%s: body length %d does not match file size %d", what, n, len(data))
	}
	return data[head : head+n], nil
}

// enc is an append-only little-endian encoder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	if len(s) > math.MaxUint16 {
		panic("storage: string longer than 64 KiB in metadata")
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// val appends a tagged value cell (colbatch.AppendCell).
func (e *enc) val(v value.Value) { e.b = colbatch.AppendCell(e.b, v) }

// dec is a bounds-checked little-endian decoder; the first failure
// latches an error and turns every further read into a zero-value
// no-op, so decode paths check err once at convenient points.
type dec struct {
	b    []byte
	off  int
	err  error
	what string
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(d.what+": "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated at offset %d (need %d more bytes)", d.off, n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	return string(d.take(n))
}

// val reads one tagged value cell (colbatch.DecodeCell).
func (d *dec) val() value.Value {
	if d.err != nil {
		return value.Null
	}
	v, n, err := colbatch.DecodeCell(d.b[d.off:])
	if err != nil {
		d.fail("%v at offset %d", err, d.off)
		return value.Null
	}
	d.off += n
	return v
}

// done checks that the decoder consumed the buffer exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}
