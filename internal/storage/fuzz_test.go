package storage

import (
	"errors"
	"testing"
)

// fuzzSeeds builds the corpus both decoders start from: a valid
// encoding plus systematic corruptions of it (truncations, version and
// magic flips, payload bit flips), so the fuzzer starts at the
// interesting boundaries instead of random noise.
func fuzzSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("TALIGNSG"))
	f.Add([]byte("TALIGNMF"))
	for _, n := range []int{4, 8, 12, 16, len(valid) / 2, len(valid) - 1} {
		if n >= 0 && n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	for _, off := range []int{0, 8, 12, len(valid) / 2, len(valid) - 1} {
		if off >= 0 && off < len(valid) {
			c := append([]byte(nil), valid...)
			c[off] ^= 0xff
			f.Add(c)
		}
	}
}

// FuzzDecodeSegment: DecodeSegment must never panic and never return a
// batch on malformed input — every failure is a structured error
// wrapping ErrCorrupt or ErrVersion (which the server surfaces as the
// wire code "internal").
func FuzzDecodeSegment(f *testing.F) {
	fuzzSeeds(f, EncodeSegment(goldenRelation().Columnar()))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, zone, err := DecodeSegment(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unstructured decode error: %v", err)
			}
			if b != nil {
				t.Fatal("error with non-nil batch")
			}
			return
		}
		if b.Len() != zone.Rows {
			t.Fatalf("batch rows %d != zone rows %d", b.Len(), zone.Rows)
		}
		// A successful decode must survive row-key extraction (the read
		// path queries run) without panicking.
		for i := 0; i < b.Len(); i++ {
			b.AppendRowKey(nil, i)
		}
	})
}

// FuzzDecodeManifest: same contract for the manifest decoder.
func FuzzDecodeManifest(f *testing.F) {
	fuzzSeeds(f, encodeManifest(goldenManifest()))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unstructured decode error: %v", err)
			}
			return
		}
		for name, tm := range m.tables {
			if name == "" || tm == nil {
				t.Fatalf("decoded manifest holds empty/nil table entry")
			}
		}
	})
}

// FuzzDecodeWALRecord: same contract for the WAL record decoder, which
// replay runs on every whole, checksum-valid record of wal.log.
func FuzzDecodeWALRecord(f *testing.F) {
	fuzzSeeds(f, encodeWALCreate(5, goldenManifest().tables["g"]))
	fuzzSeeds(f, encodeWALDrop(6, "g"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeWALRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("unstructured decode error: %v", err)
			}
			return
		}
		if r.typ != walCreateTable && r.typ != walDropTable {
			t.Fatalf("decoded record of unknown type %d", r.typ)
		}
	})
}
