package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/raceflag"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// tiedRelation is mixedRelation's rows plus an all-ω untyped column, in a
// shuffled order and with valid times that collide: seven start points,
// two durations, so every (TS, TE) key is shared by several rows and only
// the row-number tiebreak keeps their order.
func tiedRelation(t *testing.T) *relation.Relation {
	src := mixedRelation(t)
	attrs := append(append([]schema.Attr{}, src.Schema.Attrs...), schema.Attr{Name: "u", Type: value.KindNull})
	rel := relation.New(schema.Schema{Attrs: attrs})
	for i, tp := range src.Tuples {
		ts := int64(i % 7)
		vals := append(append([]value.Value{}, tp.Vals...), value.Null)
		rel.Tuples = append(rel.Tuples, tuple.Tuple{Vals: vals, T: interval.New(ts, ts+3+int64(i%2))})
	}
	rand.New(rand.NewSource(7)).Shuffle(len(rel.Tuples), func(i, j int) {
		rel.Tuples[i], rel.Tuples[j] = rel.Tuples[j], rel.Tuples[i]
	})
	return rel
}

// batchBorn returns rel's twins over one image and over three tiles.
func batchBorn(rel *relation.Relation) map[string]*relation.Relation {
	var segs []relation.Segment
	for k := 0; k < 3; k++ {
		lo, hi := k*rel.Len()/3, (k+1)*rel.Len()/3
		img := colbatch.FromTuples(nil, rel.Schema, rel.Tuples[lo:hi])
		segs = append(segs, relation.Segment{Img: img, Zone: colbatch.ZoneOf(img), Lo: lo, Hi: hi})
	}
	return map[string]*relation.Relation{
		"columnar": relation.FromColumnar(colbatch.FromTuples(nil, rel.Schema, rel.Tuples)),
		"segments": relation.FromSegments(rel.Schema, segs),
	}
}

// storeFiles creates rel as table "t" in a fresh store and returns every
// file the store wrote, by name.
func storeFiles(t *testing.T, rel *relation.Relation, segRows int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentRows = segRows
	if err := s.CreateTable("t", rel); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestCreateTableSameBytesEitherBirth: a table created from a batch-born
// relation — one image, or tiles the permutation has to gather across —
// is the same segment files and the same WAL record as one created from
// its row-born twin: same stable order on (TS, TE) ties, same column
// layouts, demoted and all-ω columns included.
func TestCreateTableSameBytesEitherBirth(t *testing.T) {
	for name, rel := range map[string]*relation.Relation{"mixed": mixedRelation(t), "tied": tiedRelation(t)} {
		for _, segRows := range []int{1, 16, 0} {
			want := storeFiles(t, rel, segRows)
			if wantSegs := (rel.Len()+max(segRows, 1)-1)/max(segRows, 1) + 1; segRows > 0 && len(want) != wantSegs {
				t.Fatalf("%s/%d: %d files, want %d", name, segRows, len(want), wantSegs)
			}
			for birth, twin := range batchBorn(rel) {
				got := storeFiles(t, twin, segRows)
				if len(got) != len(want) {
					t.Fatalf("%s/%d from %s: %d files, want %d", name, segRows, birth, len(got), len(want))
				}
				for file, data := range want {
					if !bytes.Equal(got[file], data) {
						t.Errorf("%s/%d from %s: %s differs from the row-born table's", name, segRows, birth, file)
					}
				}
				if twin.Tuples != nil {
					t.Errorf("%s/%d from %s: CreateTable left tuples on its input", name, segRows, birth)
				}
			}
		}
	}
}

// TestCreateTableKeepsTiedRowOrder: with thousands of rows on a handful of
// (TS, TE) keys, every birth writes the same files, and the loaded table
// holds each key's rows in input order (column a is the input position).
func TestCreateTableKeepsTiedRowOrder(t *testing.T) {
	const n = 3000
	rel := relation.New(schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		ts := int64(rng.Intn(5))
		rel.Tuples = append(rel.Tuples, tuple.Tuple{
			Vals: []value.Value{value.NewInt(int64(i))}, T: interval.New(ts, ts+1+int64(rng.Intn(2)))})
	}
	want := storeFiles(t, rel, 256)
	for birth, twin := range batchBorn(rel) {
		got := storeFiles(t, twin, 256)
		for file, data := range want {
			if !bytes.Equal(got[file], data) {
				t.Errorf("from %s: %s differs from the row-born table's", birth, file)
			}
		}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SegmentRows = 256
	if err := s.CreateTable("t", rel); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Load("t")
	if err != nil {
		t.Fatal(err)
	}
	rows := loaded.Rows()
	for i := 1; i < len(rows); i++ {
		if p, c := rows[i-1], rows[i]; p.T == c.T && p.Vals[0].Int() > c.Vals[0].Int() {
			t.Fatalf("rows %d and %d share %v but are out of input order", p.Vals[0].Int(), c.Vals[0].Int(), c.T)
		}
	}
	if len(rows) != n {
		t.Fatalf("loaded %d rows, want %d", len(rows), n)
	}
}

// TestLoadCreateLoad: a loaded table — mapped segments plus a WAL-resident
// tail — is itself a valid CreateTable input.
func TestLoadCreateLoad(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SegmentRows = 16
	rel := tiedRelation(t)
	if err := s.CreateTable("m", rel); err != nil {
		t.Fatal(err)
	}
	extra := rel.Tuples[:5]
	if err := s.Append("m", extra); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("m2", loaded); err != nil {
		t.Fatal(err)
	}
	again, err := s.Load("m2")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New(rel.Schema)
	want.Tuples = append(append(want.Tuples, rel.Tuples...), extra...)
	if again.Len() != want.Len() || len(again.Segments()) != (want.Len()+15)/16 {
		t.Fatalf("copy holds %d rows in %d segments, want %d rows", again.Len(), len(again.Segments()), want.Len())
	}
	for name, got := range map[string]*relation.Relation{"loaded": loaded, "copy": again} {
		if a, b := relation.Diff(want, got); len(a)+len(b) != 0 || got.Len() != want.Len() {
			t.Fatalf("%s: only want %v, only got %v", name, a, b)
		}
	}
	// The copy is sorted: every segment's rows are in (TS, TE) order and
	// no segment starts before its predecessor ends.
	var last interval.Interval
	for _, tp := range again.Rows() {
		if tp.T.Ts < last.Ts || tp.T.Ts == last.Ts && tp.T.Te < last.Te {
			t.Fatalf("copy is not in (TS, TE) order: %v after %v", tp.T, last)
		}
		last = tp.T
	}
}

// TestLoadAllocPin: loading a table of numeric columns maps its segment
// files and allocates per segment — headers, zone maps, vector structs —
// not per row. With a tuple and a value slab materialized for every row
// this read 314 B a row (the tuple slice grew by appending).
func TestLoadAllocPin(t *testing.T) {
	const n = 64000
	sch := schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindFloat})
	img := colbatch.New(sch)
	for i := 0; i < n; i++ {
		img.AppendTuple(tuple.Tuple{
			Vals: []value.Value{value.NewInt(int64(i % 97)), value.NewFloat(float64(i) / 4)},
			T:    interval.New(int64(i), int64(i+5)),
		})
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateTable("t", relation.FromColumnar(img)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("t"); err != nil { // maps the files
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rel, err := s.Load("t")
	runtime.ReadMemStats(&after)
	if err != nil || rel.Len() != n {
		t.Fatalf("load: %v, %d rows", err, rel.Len())
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Load of %d rows in %d segments: %.2f B/row", n, len(rel.Segments()), perRow)
	if perRow > 64 && !raceflag.Enabled {
		t.Errorf("Load allocates %.1f B per row, want O(segments): at most 64", perRow)
	}
}
