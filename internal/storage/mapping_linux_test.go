package storage

import (
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"talign/internal/colbatch"
	"talign/internal/exec"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// intRelation builds an n-row int relation: its segments are all
// zero-copy regions, so every loaded byte sits in the file mapping.
func intRelation(n int) *relation.Relation {
	rel := relation.New(schema.MustNew(
		schema.Attr{Name: "a", Type: value.KindInt},
		schema.Attr{Name: "b", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		rel.Tuples = append(rel.Tuples, tuple.Tuple{
			Vals: []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 7))},
			T:    interval.Interval{Ts: int64(i), Te: int64(i + 3)},
		})
	}
	return rel
}

// mappedSegments lists the segment-file lines of /proc/self/maps that
// mention dir.
func mappedSegments(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, dir) && strings.Contains(line, ".tsg") {
			out = append(out, line)
		}
	}
	return out
}

// collect runs the collector until cond holds: a cleanup runs on its own
// goroutine some time after the cycle that found its object unreachable.
func collect(cond func() bool) bool {
	for i := 0; i < 200; i++ {
		runtime.GC()
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// rssFile reads the process's file-backed resident set in KiB.
func rssFile(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`RssFile:\s+(\d+) kB`).FindSubmatch(data)
	if m == nil {
		t.Skip("no RssFile in /proc/self/status")
	}
	kb, _ := strconv.Atoi(string(m[1]))
	return kb
}

// TestDroppedTableUnmapsWhenUnreachable: a mapping lives exactly as long
// as something can reach it. While the table exists the Store shares it;
// after DropTable only the loaded relation holds it — its files show as
// "(deleted)" in /proc/self/maps and its segments still read — and once
// the relation is unreachable the mappings are gone.
func TestDroppedTableUnmapsWhenUnreachable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SegmentRows = 100
	src := intRelation(350)
	if err := st.CreateTable("c", src); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("keep", src); err != nil {
		t.Fatal(err)
	}
	rel, err := st.Load("c")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := st.Load("keep")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mappedSegments(t, dir)); n != 8 {
		t.Fatalf("%d segment mappings after loading two 4-segment tables, want 8", n)
	}
	if err := st.DropTable("c"); err != nil {
		t.Fatal(err)
	}
	// Held by rel alone: collections must not release it.
	runtime.GC()
	runtime.GC()
	deleted := 0
	for _, line := range mappedSegments(t, dir) {
		if strings.HasSuffix(line, "(deleted)") {
			deleted++
		}
	}
	if deleted != 4 {
		t.Fatalf("%d deleted segment files still mapped while the relation is held, want 4", deleted)
	}
	sum := int64(0)
	for _, sg := range rel.Segments() {
		for _, x := range sg.Img.Cols[0].Ints {
			sum += x
		}
	}
	if want := int64(349 * 350 / 2); sum != want {
		t.Fatalf("segments of the dropped table sum to %d, want %d", sum, want)
	}
	runtime.KeepAlive(rel)
	rel = nil
	if !collect(func() bool { return len(mappedSegments(t, dir)) == 4 }) {
		t.Fatalf("mappings of the dropped table survive its last reference:\n%s", strings.Join(mappedSegments(t, dir), "\n"))
	}
	for _, line := range mappedSegments(t, dir) {
		if strings.HasSuffix(line, "(deleted)") {
			t.Errorf("deleted segment file still mapped: %s", line)
		}
	}
	// The surviving table was never touched.
	if !relation.SetEqual(kept, src) {
		t.Error("the table that was not dropped changed")
	}
}

// TestCreateLoadDropCyclesHoldRssFile: 200 create / load / scan / drop
// cycles of a 256 KiB table (the size of segments_rw's c) — the ingest beside reads of the segments_rw
// workload — leave the file-backed resident set where it started.
func TestCreateLoadDropCyclesHoldRssFile(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := intRelation(8000)
	cycle := func() {
		if err := st.CreateTable("c", src); err != nil {
			t.Fatal(err)
		}
		rel, err := st.Load("c") // decoding checks the CRC: every page is touched
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != src.Len() {
			t.Fatalf("loaded %d rows, want %d", rel.Len(), src.Len())
		}
		if err := st.DropTable("c"); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	collect(func() bool { return true })
	start := rssFile(t)
	for i := 0; i < 200; i++ {
		cycle()
	}
	var end int
	if !collect(func() bool { end = rssFile(t); return end-start <= 2048 }) {
		t.Fatalf("RssFile grew from %d to %d KiB across 200 create/load/drop cycles", start, end)
	}
}

// TestCloseAfterDropsUnmapsOnce: Close is idempotent, unmaps only what
// the Store still owns and cancels those mappings' collector-driven
// unmap. The check for a second unmap is a bystander: a fresh store maps
// a same-sized file right after Close — the kernel hands it the hole just
// freed — and must keep it through the collection of the old store's
// relations.
func TestCloseAfterDropsUnmapsOnce(t *testing.T) {
	src := intRelation(4000) // one segment
	open := func(dir string) (*Store, *relation.Relation) {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CreateTable("kept", src); err != nil {
			t.Fatal(err)
		}
		rel, err := st.Load("kept")
		if err != nil {
			t.Fatal(err)
		}
		return st, rel
	}
	oldDir, newDir := t.TempDir(), t.TempDir()
	st, kept := open(oldDir)
	if err := st.CreateTable("gone", src); err != nil {
		t.Fatal(err)
	}
	gone, err := st.Load("gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	// Close released the live table's mapping; the dropped table's is its
	// relation's, not the Store's.
	if maps := mappedSegments(t, oldDir); len(maps) != 1 || !strings.HasSuffix(maps[0], "(deleted)") {
		t.Fatalf("after Close: %q, want only the dropped table's mapping", maps)
	}
	st2, rel2 := open(newDir)
	defer st2.Close()
	runtime.KeepAlive(kept)
	runtime.KeepAlive(gone)
	kept, gone = nil, nil
	if !collect(func() bool { return len(mappedSegments(t, oldDir)) == 0 }) {
		t.Fatalf("the dropped table's mapping outlived its relation: %q", mappedSegments(t, oldDir))
	}
	// A few more cycles for a cleanup that should not exist.
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(mappedSegments(t, newDir)); n != 1 {
		t.Fatalf("the bystander's mapping was unmapped: %d mappings left", n)
	}
	if rel2.Segments()[0].Img.Cols[0].Ints[3999] != 3999 {
		t.Fatal("the bystander's segment does not read back")
	}
}

// TestDropTableReleasesPagesAtOnce: DROP TABLE gives the dropped table's
// resident pages back without waiting for the collector, while a scan
// opened before the drop still drains the same rows and checksum after it,
// faulting its pages back in from the unlinked files.
func TestDropTableReleasesPagesAtOnce(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SegmentRows = 4000
	src := intRelation(64000) // 2 MiB of zero-copy columns, 16 segments
	if err := st.CreateTable("c", src); err != nil {
		t.Fatal(err)
	}
	rel, err := st.Load("c") // decoding checks the CRC: every page is resident
	if err != nil {
		t.Fatal(err)
	}
	checksum := func(b *colbatch.Batch, sum *int64, rows *int) {
		for i := range b.NumRows() {
			r := b.RowAt(i)
			*sum += b.Cols[0].Ints[r]*3 + b.Cols[1].Ints[r]*5 + b.TS[r]*7 + b.TE[r]*11
			*rows++
		}
	}
	var want int64
	wantRows := 0
	checksum(src.Columnar(), &want, &wantRows)
	scan := exec.NewColSegScan(rel.Schema, rel.Segments())
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	var sum int64
	rows := 0
	for range 5 { // part of the table before the drop
		b, err := scan.NextCol()
		if err != nil || b == nil {
			t.Fatalf("batch before the drop: %v, %v", b, err)
		}
		checksum(b, &sum, &rows)
	}
	before := rssFile(t)
	if err := st.DropTable("c"); err != nil {
		t.Fatal(err)
	}
	if after := rssFile(t); before-after < 1024 {
		t.Errorf("RssFile went from %d to %d KiB at DROP TABLE, want at least 1 MiB of the table's 2 given back", before, after)
	}
	for {
		b, err := scan.NextCol()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		checksum(b, &sum, &rows)
	}
	if rows != wantRows || sum != want {
		t.Errorf("the scan drained %d rows, checksum %d, want %d rows, %d", rows, sum, wantRows, want)
	}
	runtime.KeepAlive(rel)
}
