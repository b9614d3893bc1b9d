package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"

	"talign/internal/faultinject"
)

// WAL record types. Type 3 must not be reused: older logs may hold it
// (row appends), and replay refuses it like any record it cannot decode.
const (
	walCreateTable = 1 // name, schema, segment list (the commit point of CreateTable)
	walDropTable   = 2 // name
)

// walRecord is one decoded WAL record.
type walRecord struct {
	seq   uint64
	typ   uint8
	name  string
	table tableMeta // walCreateTable only
}

// maxWALRecord bounds a single record; longer length prefixes are
// treated as corruption (they would otherwise allocate unboundedly).
const maxWALRecord = 1 << 30

// walWriter appends checksummed records to wal.log. It is fail-stop:
// after a failed append or truncate the file's tail is unknown (a torn
// prefix, or bytes whose fsync failed), and a record appended behind it
// would be lost when replay truncates there. So the first error latches
// and every later call returns it until the store is reopened.
type walWriter struct {
	f   *os.File
	err error
}

func openWAL(dir string) (*walWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f}, nil
}

// append frames and durably appends one record payload. Fault sites:
// storage.wal.append fails before any bytes reach the file,
// storage.wal.torn fails after writing only a prefix of the record
// (simulating a crash mid-write), storage.wal.sync fails after the
// write but before the fsync that makes it durable.
func (w *walWriter) append(payload []byte) error {
	if w.err == nil {
		w.err = w.write(payload)
	}
	return w.err
}

func (w *walWriter) write(payload []byte) error {
	if err := faultinject.Hit("storage.wal.append"); err != nil {
		return err
	}
	rec := make([]byte, 0, 8+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if err := faultinject.Hit("storage.wal.torn"); err != nil {
		w.f.Write(rec[:len(rec)/2])
		w.f.Sync()
		return err
	}
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	if err := faultinject.Hit("storage.wal.sync"); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *walWriter) close() error { return w.f.Close() }

// truncate empties the log after a checkpoint; fault site
// storage.wal.truncate fails before the truncation happens.
func (w *walWriter) truncate() error {
	if w.err != nil {
		return w.err
	}
	if err := faultinject.Hit("storage.wal.truncate"); err != nil {
		w.err = err
	} else if err := w.f.Truncate(0); err != nil {
		w.err = err
	} else {
		w.err = w.f.Sync()
	}
	return w.err
}

// encodeWALCreate builds a create-table record payload.
func encodeWALCreate(seq uint64, t *tableMeta) []byte {
	var e enc
	e.u64(seq)
	e.u8(walCreateTable)
	e.str(t.name)
	encodeSchema(&e, t.schema)
	e.u32(uint32(len(t.segs)))
	for _, sg := range t.segs {
		e.str(sg.file)
		e.u32(uint32(sg.rows))
		encodeZone(&e, sg.zone)
	}
	return e.b
}

// encodeWALDrop builds a drop-table record payload.
func encodeWALDrop(seq uint64, name string) []byte {
	var e enc
	e.u64(seq)
	e.u8(walDropTable)
	e.str(name)
	return e.b
}

// decodeWALRecord parses one record payload.
func decodeWALRecord(payload []byte) (walRecord, error) {
	d := &dec{b: payload, what: "wal record"}
	var r walRecord
	r.seq = d.u64()
	r.typ = d.u8()
	r.name = d.str()
	switch r.typ {
	case walCreateTable:
		r.table.name = r.name
		r.table.schema = decodeSchema(d)
		nsegs := int(d.u32())
		if d.err == nil && nsegs > len(payload) {
			d.fail("segment count %d exceeds record", nsegs)
		}
		if d.err != nil {
			return r, d.err
		}
		r.table.segs = make([]segMeta, nsegs)
		for i := 0; i < nsegs && d.err == nil; i++ { // a short record allocates no zone per claimed segment
			r.table.segs[i].file = d.str()
			r.table.segs[i].rows = int(d.u32())
			r.table.segs[i].zone = decodeZone(d, r.table.schema.Len())
		}
	case walDropTable:
	default:
		d.fail("unknown record type %d", r.typ)
	}
	if err := d.done(); err != nil {
		return r, err
	}
	return r, nil
}

// replayWAL scans wal.log, applies every intact record through apply,
// and truncates the file at the first torn record — a short length or a
// checksum mismatch, the crash-interrupted tail. A record that is whole
// and checksum-valid but does not decode is no torn write: cutting it
// off would drop the committed records behind it, so replay fails with
// an error wrapping ErrCorrupt and leaves the file as it is. It returns
// the highest sequence number seen.
func replayWAL(dir string, apply func(walRecord)) (uint64, error) {
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	var maxSeq uint64
	off := 0
	good := 0
	for {
		if len(data)-off < 8 {
			break // clean end or torn header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 9 || n > maxWALRecord || n > len(data)-off-8 {
			break // torn or garbage length
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn or corrupt record
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return maxSeq, err
		}
		if rec.seq > maxSeq {
			maxSeq = rec.seq
		}
		apply(rec)
		off += 8 + n
		good = off
	}
	if good != len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return maxSeq, err
		}
	}
	return maxSeq, nil
}
