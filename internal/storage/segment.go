package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"talign/internal/colbatch"
	"talign/internal/schema"
	"talign/internal/value"
)

// segHeader is the decoded header of a segment file. Region offsets
// (colbatch.ColRegions) are absolute file offsets, 8-byte aligned.
type segHeader struct {
	rows   int
	schema schema.Schema
	zone   colbatch.Zone
	tsOff  uint64
	teOff  uint64
	cols   []colbatch.ColRegions
}

// EncodeSegment serializes a batch (no selection vector) into the
// segment file format, including its zone map. The encoding is
// deterministic: the same batch always produces the same bytes (the
// golden-file tests depend on this).
func EncodeSegment(b *colbatch.Batch) []byte {
	if b.Sel != nil {
		panic("storage: EncodeSegment over a selection")
	}
	hdr := segHeader{rows: b.Len(), schema: b.Schema, zone: colbatch.ZoneOf(b), cols: make([]colbatch.ColRegions, len(b.Cols))}

	// The header precedes the payload but records the payload's
	// offsets, so its space is reserved first — its length does not
	// depend on the offsets, which are fixed-width — and filled in once
	// the regions have been appended behind it.
	hdrLen := len(encodeSegHeader(hdr))
	preamble := len(segMagic) + 8 // magic + version + body length
	payloadBase := (preamble + hdrLen + 7) &^ 7
	out := make([]byte, payloadBase, payloadBase+(2+len(b.Cols))*8*(b.Len()+1))
	copy(out, segMagic)
	binary.LittleEndian.PutUint32(out[len(segMagic):], SegmentVersion)

	hdr.tsOff = uint64(len(out))
	out = colbatch.AppendInt64s(out, b.TS)
	hdr.teOff = uint64(len(out))
	out = colbatch.AppendInt64s(out, b.TE)
	for c := range b.Cols {
		out, hdr.cols[c] = b.Cols[c].AppendRegions(out, 0)
	}
	copy(out[preamble:], encodeSegHeader(hdr))
	binary.LittleEndian.PutUint32(out[len(segMagic)+4:], uint32(len(out)-preamble))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// encodeSegHeader serializes the header section.
func encodeSegHeader(h segHeader) []byte {
	var e enc
	e.u32(uint32(h.rows))
	e.u16(uint16(len(h.schema.Attrs)))
	for _, a := range h.schema.Attrs {
		e.str(a.Name)
		e.u8(uint8(a.Type))
	}
	encodeZone(&e, h.zone)
	e.u64(h.tsOff)
	e.u64(h.teOff)
	for _, c := range h.cols {
		e.u8(c.Enc)
		e.u64(c.DataOff)
		e.u64(c.DataLen)
		e.u64(c.AuxOff)
		e.u64(c.AuxLen)
		e.u64(c.NullsOff)
		e.u64(c.NullsLen)
	}
	return e.b
}

func encodeZone(e *enc, z colbatch.Zone) {
	e.u32(uint32(z.Rows))
	e.i64(z.MinTS)
	e.i64(z.MaxTS)
	e.i64(z.MinTE)
	e.i64(z.MaxTE)
	for _, c := range z.Cols {
		e.val(c.Min)
		e.val(c.Max)
		e.u32(uint32(c.Nulls))
	}
}

func decodeZone(d *dec, cols int) colbatch.Zone {
	z := colbatch.Zone{Rows: int(d.u32())}
	z.MinTS = d.i64()
	z.MaxTS = d.i64()
	z.MinTE = d.i64()
	z.MaxTE = d.i64()
	z.Cols = make([]colbatch.ZoneCol, cols)
	for i := range z.Cols {
		z.Cols[i].Min = d.val()
		z.Cols[i].Max = d.val()
		z.Cols[i].Nulls = int(d.u32())
	}
	return z
}

// DecodeSegment parses a segment file into a batch plus its zone map.
// When data is a memory-mapped region on a little-endian host, the
// int64/float64 columns, the TS/TE arrays and the validity bitmaps
// alias the mapping directly (zero copy); strings, bools and boxed
// cells are decoded onto the heap. The batch is read-only and valid
// only while data stays mapped.
func DecodeSegment(data []byte) (*colbatch.Batch, colbatch.Zone, error) {
	body, err := unframe(segMagic, SegmentVersion, data, "segment")
	if err != nil {
		return nil, colbatch.Zone{}, err
	}
	d := &dec{b: body, what: "segment header"}
	rows := int(d.u32())
	ncols := int(d.u16())
	if d.err != nil {
		return nil, colbatch.Zone{}, d.err
	}
	if rows < 0 || rows > len(data) {
		return nil, colbatch.Zone{}, corruptf("segment header: row count %d exceeds file size", rows)
	}
	if ncols > math.MaxUint16 || 7*ncols > len(body) {
		return nil, colbatch.Zone{}, corruptf("segment header: column count %d exceeds header size", ncols)
	}
	attrs := make([]schema.Attr, ncols)
	for i := range attrs {
		attrs[i].Name = d.str()
		attrs[i].Type = value.Kind(d.u8())
		if attrs[i].Type > value.KindInterval {
			return nil, colbatch.Zone{}, corruptf("segment header: column %d has unknown kind %d", i, attrs[i].Type)
		}
	}
	zone := decodeZone(d, ncols)
	hdr := segHeader{rows: rows, schema: schema.Schema{Attrs: attrs}, zone: zone}
	hdr.tsOff = d.u64()
	hdr.teOff = d.u64()
	hdr.cols = make([]colbatch.ColRegions, ncols)
	for i := range hdr.cols {
		c := &hdr.cols[i]
		c.Enc = d.u8()
		c.DataOff = d.u64()
		c.DataLen = d.u64()
		c.AuxOff = d.u64()
		c.AuxLen = d.u64()
		c.NullsOff = d.u64()
		c.NullsLen = d.u64()
	}
	if d.err != nil {
		return nil, colbatch.Zone{}, d.err
	}
	if zone.Rows != rows {
		return nil, colbatch.Zone{}, corruptf("segment header: zone rows %d != segment rows %d", zone.Rows, rows)
	}

	// region bounds-checks a payload region and returns its bytes.
	// The file-level CRC already vouches for content; this guards
	// against malformed offsets pointing outside the checked bytes.
	region := func(off, length uint64, what string) ([]byte, error) {
		end := uint64(len(data)) - 4 // the trailing CRC is not payload
		if off%8 != 0 {
			return nil, corruptf("segment: %s region at offset %d is not 8-byte aligned", what, off)
		}
		if off > end || length > end-off {
			return nil, corruptf("segment: %s region [%d, +%d) exceeds file payload [0, %d)", what, off, length, end)
		}
		return data[off : off+length], nil
	}
	tsb, err := region(hdr.tsOff, uint64(rows)*8, "ts")
	if err != nil {
		return nil, colbatch.Zone{}, err
	}
	teb, err := region(hdr.teOff, uint64(rows)*8, "te")
	if err != nil {
		return nil, colbatch.Zone{}, err
	}
	ts := colbatch.DecodeInt64s(tsb, rows)
	te := colbatch.DecodeInt64s(teb, rows)

	cols := make([]colbatch.Vec, ncols)
	for i := range cols {
		c := hdr.cols[i]
		name := attrs[i].Name
		nb, err := region(c.NullsOff, c.NullsLen, name+" bitmap")
		if err != nil {
			return nil, colbatch.Zone{}, err
		}
		db, err := region(c.DataOff, c.DataLen, name+" data")
		if err != nil {
			return nil, colbatch.Zone{}, err
		}
		ab, err := region(c.AuxOff, c.AuxLen, name+" aux")
		if err != nil {
			return nil, colbatch.Zone{}, err
		}
		cols[i], err = colbatch.DecodeRegions(c.Enc, attrs[i].Type, rows, db, ab, nb)
		if err != nil {
			return nil, colbatch.Zone{}, corruptf("segment: column %q: %v", name, err)
		}
	}
	return colbatch.NewFromParts(hdr.schema, cols, ts, te), zone, nil
}
