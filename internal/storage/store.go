package storage

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"talign/internal/colbatch"
	"talign/internal/faultinject"
	"talign/internal/relation"
	"talign/internal/schema"
)

// DefaultSegmentRows is the partition size CreateTable chops tables
// into when the Store's SegmentRows is left zero.
const DefaultSegmentRows = 4096

// Process-wide operation counters, exposed through /metrics the same
// way the exec package exposes its cancellation observations.
var (
	walAppendsTotal  atomic.Uint64
	walReplayedTotal atomic.Uint64
	checkpointsTotal atomic.Uint64
	segsWrittenTotal atomic.Uint64
	segsLoadedTotal  atomic.Uint64
)

// WALAppends reports WAL records durably appended process-wide.
func WALAppends() uint64 { return walAppendsTotal.Load() }

// WALReplayed reports WAL records replayed at Open process-wide.
func WALReplayed() uint64 { return walReplayedTotal.Load() }

// Checkpoints reports completed checkpoints process-wide.
func Checkpoints() uint64 { return checkpointsTotal.Load() }

// SegmentsWritten reports segment files written process-wide.
func SegmentsWritten() uint64 { return segsWrittenTotal.Load() }

// SegmentsLoaded reports segment files decoded at load process-wide.
func SegmentsLoaded() uint64 { return segsLoadedTotal.Load() }

// Store is an open data directory: the durable table catalog plus its
// write-ahead log. All methods are safe for concurrent use. Loaded
// relations alias memory-mapped segment files; a mapping belongs to the
// relations loaded from it and, while the table is in the manifest, to
// the Store (see mapping). Close unmaps what the Store still owns, so it
// must stay open while any relation of a table it still holds is in use.
type Store struct {
	// SegmentRows caps rows per segment when partitioning a table;
	// set before the first CreateTable (0 means DefaultSegmentRows).
	SegmentRows int

	dir string

	mu     sync.Mutex
	man    *manifest
	wal    *walWriter
	seq    uint64
	maps   map[string]*mapping // segment file -> its mapping, for tables in the manifest
	closed bool
}

// mapping owns one memory-mapped segment file. Every relation.Segment
// decoded from the file references it (Segment.Owner), and so does
// Store.maps while the file's table exists; when the last reference is
// gone — the table dropped, its relation out of the catalog, the plans
// over it purged, the scans reading it closed — the collector runs the
// cleanup that unmaps the file. Lifetime is reachability: no reader pins
// or unpins, and a scan that started before DROP TABLE drains unharmed.
// Close cancels the cleanup of the mappings the Store still owns and
// unmaps them itself, so no file is unmapped twice.
type mapping struct {
	data    []byte
	cleanup runtime.Cleanup
}

// newMapping wraps a fresh mapping in its owner and arms the unmap.
func newMapping(data []byte) *mapping {
	m := &mapping{data: data}
	m.cleanup = runtime.AddCleanup(m, func(b []byte) { _ = munmapFile(b) }, data)
	return m
}

// Open opens (creating if needed) a data directory: it reads the
// manifest, replays the WAL on top — truncating any crash-torn tail,
// refusing a whole record it cannot decode — and deletes orphan segment
// files left by interrupted CreateTables.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		man:  newManifest(),
		maps: make(map[string]*mapping),
	}
	if data, err := os.ReadFile(filepath.Join(dir, "manifest.bin")); err == nil {
		m, err := decodeManifest(data)
		if err != nil {
			return nil, err
		}
		s.man = m
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	s.seq = s.man.seq
	walSeq, err := replayWAL(dir, func(r walRecord) {
		if r.seq <= s.man.seq {
			return // already folded into the manifest by a checkpoint
		}
		walReplayedTotal.Add(1)
		switch r.typ {
		case walCreateTable:
			t := r.table
			s.man.tables[r.name] = &t
			s.bumpSegIDs(t.segs)
		case walDropTable:
			delete(s.man.tables, r.name)
		}
	})
	if err != nil {
		return nil, err
	}
	if walSeq > s.seq {
		s.seq = walSeq
	}
	if err := s.gcOrphans(); err != nil {
		return nil, err
	}
	w, err := openWAL(dir)
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// bumpSegIDs advances nextSegID past ids recovered from WAL records.
func (s *Store) bumpSegIDs(segs []segMeta) {
	for _, sg := range segs {
		var id uint64
		if _, err := fmt.Sscanf(sg.file, "seg-%d.tsg", &id); err == nil && id >= s.man.nextSegID {
			s.man.nextSegID = id + 1
		}
	}
}

// gcOrphans removes segment files no committed table references:
// the leftovers of CreateTables that crashed before their WAL commit
// record, and of dropped tables after a checkpoint.
func (s *Store) gcOrphans() error {
	referenced := make(map[string]bool)
	for _, t := range s.man.tables {
		for _, sg := range t.segs {
			referenced[sg.file] = true
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".tsg") || referenced[name] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// Tables returns the committed table names in sorted order.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.man.tables))
	for n := range s.man.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Has reports whether a committed table of that name exists.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.man.tables[name]
	return ok
}

// segRows resolves the partition size.
func (s *Store) segRows() int {
	if s.SegmentRows > 0 {
		return s.SegmentRows
	}
	return DefaultSegmentRows
}

// CreateTable partitions rel by valid time into columnar segments,
// writes and syncs them, then commits the table with one WAL record.
// A crash before the WAL append leaves only orphan files that the next
// Open garbage-collects; a crash after it leaves a fully durable table.
// rel is only read, in the form it holds — columns or tuples — and the
// files are the same bytes either way.
func (s *Store) CreateTable(name string, rel *relation.Relation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("storage: empty table name")
	}
	if s.man.tables[name] != nil {
		return fmt.Errorf("storage: table %q already exists", name)
	}
	segs, err := s.writeSegments(rel)
	if err != nil {
		return err
	}
	t := &tableMeta{name: name, schema: rel.Schema, segs: segs}
	if err := s.commit(encodeWALCreate(s.seq+1, t)); err != nil {
		return err
	}
	s.man.tables[name] = t
	return nil
}

// writeSegments writes rel's rows as segment files of at most segRows
// rows, partitioned by valid time: (TS, TE) order gives segments tight,
// mostly disjoint time zones, which is what makes zone-map pruning work
// on valid-time predicates. A permutation of row numbers is sorted, not
// rows — on (TS, TE, row number), so ties keep their order — and each run
// of it gathered into one reused batch: from the columns of a batch-born
// relation (its one image; a segmented one concatenates first), else from
// the tuples.
func (s *Store) writeSegments(rel *relation.Relation) ([]segMeta, error) {
	var img *colbatch.Batch
	if rel.Parts() != nil {
		img = rel.Columnar()
	}
	ts, te := rel.ValidTimes()
	perm := make([]int32, len(ts))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		return cmp.Or(cmp.Compare(ts[a], ts[b]), cmp.Compare(te[a], te[b]), cmp.Compare(a, b))
	})
	var segs []segMeta
	per := min(s.segRows(), len(perm))
	batch := colbatch.New(rel.Schema)
	batch.Reserve(per)
	for len(perm) > 0 {
		run := perm[:min(per, len(perm))]
		perm = perm[len(run):]
		batch.Reset()
		if img != nil {
			batch.AppendRows(img, run)
		} else {
			for _, r := range run {
				batch.AppendTuple(rel.Rows()[r])
			}
		}
		file := fmt.Sprintf("seg-%08d.tsg", s.man.nextSegID)
		if err := s.writeSegment(file, EncodeSegment(batch)); err != nil {
			return nil, err
		}
		s.man.nextSegID++
		segs = append(segs, segMeta{file: file, rows: len(run), zone: colbatch.ZoneOf(batch)})
	}
	return segs, nil
}

// writeSegment durably writes one segment file. Fault sites:
// storage.seg.write before any bytes, storage.seg.sync after the
// write but before the fsync.
func (s *Store) writeSegment(file string, data []byte) error {
	if err := faultinject.Hit("storage.seg.write"); err != nil {
		return err
	}
	path := filepath.Join(s.dir, file)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Hit("storage.seg.sync"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	segsWrittenTotal.Add(1)
	return nil
}

// commit appends one WAL record and advances the sequence number.
func (s *Store) commit(payload []byte) error {
	if err := s.wal.append(payload); err != nil {
		return err
	}
	s.seq++
	walAppendsTotal.Add(1)
	return nil
}

// DropTable removes a table. The WAL record is the commit point; the
// segment files are deleted immediately afterwards and the Store lets go
// of their mappings, which stay valid for the relations that hold them
// and go with the last one (see mapping). Their resident pages go at once:
// a scan still reading faults them back in from the unlinked file.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	t := s.man.tables[name]
	if t == nil {
		return fmt.Errorf("storage: unknown table %q", name)
	}
	if err := s.commit(encodeWALDrop(s.seq+1, name)); err != nil {
		return err
	}
	delete(s.man.tables, name)
	for _, sg := range t.segs {
		os.Remove(filepath.Join(s.dir, sg.file))
		releasePages(s.maps[sg.file])
		delete(s.maps, sg.file)
	}
	return nil
}

// Checkpoint folds the WAL's create and drop records into a new
// manifest (written atomically) and truncates the WAL. Crashing
// anywhere in between is safe: the WAL replays idempotently over
// whichever manifest survived.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if err := faultinject.Hit("storage.checkpoint"); err != nil {
		return err
	}
	s.man.seq = s.seq
	if err := writeManifest(s.dir, s.man); err != nil {
		return err
	}
	if err := s.wal.truncate(); err != nil {
		return err
	}
	checkpointsTotal.Add(1)
	return nil
}

// Load assembles a table into a batch-born relation over its segments
// (relation.FromSegments): one zero-copy columnar image per mapped
// segment file, zone maps included. No tuple is built: the heap cost is
// per segment, not per row (but see DecodeSegment on strings and bools).
// Fault site: storage.load, before anything is mapped.
func (s *Store) Load(name string) (*relation.Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return nil, err
	}
	t := s.man.tables[name]
	if t == nil {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	if err := faultinject.Hit("storage.load"); err != nil {
		return nil, err
	}
	var segs []relation.Segment
	lo := 0
	for _, sg := range t.segs {
		m, err := s.mapFile(sg.file)
		if err != nil {
			return nil, err
		}
		batch, zone, err := DecodeSegment(m.data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sg.file, err)
		}
		if err := sameSchema(batch.Schema, t.schema); err != nil {
			return nil, corruptf("segment %s schema drifted from catalog: %v", sg.file, err)
		}
		if batch.Len() != sg.rows {
			return nil, corruptf("segment %s holds %d rows, catalog says %d", sg.file, batch.Len(), sg.rows)
		}
		segs = append(segs, relation.Segment{Img: batch, Zone: zone, Lo: lo, Hi: lo + batch.Len(), Owner: m})
		lo += batch.Len()
		segsLoadedTotal.Add(1)
	}
	return relation.FromSegments(t.schema, segs), nil
}

// sameSchema checks name/kind equality between a segment's embedded
// schema and the catalog's.
func sameSchema(a, b schema.Schema) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("arity %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Attrs {
		if !strings.EqualFold(a.Attrs[i].Name, b.Attrs[i].Name) || a.Attrs[i].Type != b.Attrs[i].Type {
			return fmt.Errorf("attribute %d: %s vs %s", i, a.Attrs[i], b.Attrs[i])
		}
	}
	return nil
}

// mapFile memory-maps a segment file once and shares the mapping among
// every Load of its table, until the table is dropped.
func (s *Store) mapFile(file string) (*mapping, error) {
	if m, ok := s.maps[file]; ok {
		return m, nil
	}
	f, err := os.Open(filepath.Join(s.dir, file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := mmapFile(f)
	if err != nil {
		return nil, err
	}
	m := newMapping(b)
	s.maps[file] = m
	return m, nil
}

func (s *Store) usable() error {
	if s.closed {
		return fmt.Errorf("storage: store is closed")
	}
	return nil
}

// Close releases the WAL handle and every mapping the Store still owns
// (the tables in the manifest), cancelling their collector-driven unmap.
// Relations of those tables must not be used afterwards: their columnar
// images alias the released mappings. Mappings of tables dropped earlier
// go when their last reader does. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, m := range s.maps {
		m.cleanup.Stop()
		if err := munmapFile(m.data); err != nil && first == nil {
			first = err
		}
	}
	s.maps = nil
	if err := s.wal.close(); err != nil && first == nil {
		first = err
	}
	return first
}
