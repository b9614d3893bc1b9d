package storage

import (
	"os"
	"path/filepath"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// mixedRelation builds a relation exercising every column layout:
// ints, floats, strings, bools, an untyped column, a demoted numeric
// column, and ω cells scattered through all of them.
func mixedRelation(t *testing.T) *relation.Relation {
	t.Helper()
	sch := schema.MustNew(
		schema.Attr{Name: "i", Type: value.KindInt},
		schema.Attr{Name: "f", Type: value.KindFloat},
		schema.Attr{Name: "s", Type: value.KindString},
		schema.Attr{Name: "b", Type: value.KindBool},
		schema.Attr{Name: "mix", Type: value.KindInt}, // demotes via float
	)
	rel := relation.New(sch)
	vals := func(i int) []value.Value {
		row := []value.Value{
			value.NewInt(int64(i)),
			value.NewFloat(float64(i) / 2),
			value.NewString(string(rune('a' + i%26))),
			value.NewBool(i%2 == 0),
			value.NewInt(int64(i)),
		}
		if i%5 == 0 {
			row[0] = value.Null
		}
		if i%7 == 0 {
			row[2] = value.Null
		}
		if i%3 == 0 {
			row[4] = value.NewFloat(float64(i) + 0.5)
		}
		return row
	}
	for i := 0; i < 100; i++ {
		rel.MustAppend(tuple.Tuple{Vals: vals(i), T: interval.New(int64(i), int64(i+10))})
	}
	return rel
}

func TestSegmentRoundTrip(t *testing.T) {
	rel := mixedRelation(t)
	batch := rel.Columnar()
	data := EncodeSegment(batch)
	got, zone, err := DecodeSegment(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Len() != batch.Len() {
		t.Fatalf("rows: got %d, want %d", got.Len(), batch.Len())
	}
	if zone.Rows != batch.Len() || zone.MinTS != 0 || zone.MaxTS != 99 || zone.MinTE != 10 || zone.MaxTE != 109 {
		t.Fatalf("zone: %+v", zone)
	}
	back := relation.New(rel.Schema)
	back.Tuples = got.Materialize(nil)
	if !relation.SetEqual(rel, back) {
		a, b := relation.Diff(rel, back)
		t.Fatalf("round trip changed rows: onlyA=%v onlyB=%v", a, b)
	}
	// Decoding is also key-exact, not just set-equal.
	for i := 0; i < batch.Len(); i++ {
		a := batch.AppendRowKey(nil, i)
		b := got.AppendRowKey(nil, i)
		if string(a) != string(b) {
			t.Fatalf("row %d key drifted", i)
		}
	}
}

func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	rel := mixedRelation(t)

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.SegmentRows = 16
	if err := s.CreateTable("m", rel); err != nil {
		t.Fatalf("create: %v", err)
	}
	loaded, err := s.Load("m")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !relation.SetEqual(rel, loaded) {
		a, b := relation.Diff(rel, loaded)
		t.Fatalf("pre-restart load: onlyA=%v onlyB=%v", a, b)
	}
	if segs := loaded.Segments(); len(segs) != 100/16+1 {
		t.Fatalf("segments: got %d, want %d", len(segs), 100/16+1)
	}

	// Reopen without checkpoint: WAL replay must restore the
	// CreateTable.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	loaded2, err := s2.Load("m")
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if !relation.SetEqual(rel, loaded2) {
		a, b := relation.Diff(rel, loaded2)
		t.Fatalf("post-restart load: onlyA=%v onlyB=%v", a, b)
	}

	// Checkpoint folds the create record into the manifest and
	// truncates the WAL; a third open must see identical data with no
	// replay.
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
		t.Fatalf("wal after checkpoint: %v / %d bytes", err, st.Size())
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("open 3: %v", err)
	}
	defer s3.Close()
	loaded3, err := s3.Load("m")
	if err != nil {
		t.Fatalf("load 3: %v", err)
	}
	if !relation.SetEqual(rel, loaded3) {
		a, b := relation.Diff(rel, loaded3)
		t.Fatalf("post-checkpoint load: onlyA=%v onlyB=%v", a, b)
	}

	// DropTable removes the table and its files.
	if err := s3.DropTable("m"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, err := s3.Load("m"); err == nil {
		t.Fatal("load after drop succeeded")
	}
	if names := s3.Tables(); len(names) != 0 {
		t.Fatalf("tables after drop: %v", names)
	}
}

func TestZoneMapsSurviveManifest(t *testing.T) {
	dir := t.TempDir()
	rel := mixedRelation(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.SegmentRows = 25
	if err := s.CreateTable("m", rel); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	loaded, err := s2.Load("m")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	segs := loaded.Segments()
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4", len(segs))
	}
	// CreateTable sorts by TS, so the four zones partition [0, 100)
	// into consecutive TS ranges.
	for i, sg := range segs {
		if sg.Zone.Rows != 25 {
			t.Fatalf("segment %d zone rows %d", i, sg.Zone.Rows)
		}
		if want := int64(i * 25); sg.Zone.MinTS != want {
			t.Fatalf("segment %d MinTS %d, want %d", i, sg.Zone.MinTS, want)
		}
		if want := int64(i*25 + 24); sg.Zone.MaxTS != want {
			t.Fatalf("segment %d MaxTS %d, want %d", i, sg.Zone.MaxTS, want)
		}
		// The zone decoded from disk matches one recomputed in memory.
		if got := colbatch.ZoneOf(sg.Img); got.MinTS != sg.Zone.MinTS || got.MaxTS != sg.Zone.MaxTS ||
			got.MinTE != sg.Zone.MinTE || got.MaxTE != sg.Zone.MaxTE {
			t.Fatalf("segment %d zone drifted: disk %+v, memory %+v", i, sg.Zone, got)
		}
	}
}
