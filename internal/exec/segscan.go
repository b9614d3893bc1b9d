// Segment-aware scans. A relation loaded from on-disk storage carries
// interval-partitioned segments with zone maps; the plan layer prunes
// segments whose zone is disjoint from the pushed-down predicate and
// hands the survivors to one of these scans. Both serve exactly the
// rows of the surviving segments — pruning must never change results,
// only skip work — and both leave the pruning decision entirely to the
// planner.
package exec

import (
	"sync/atomic"

	"talign/internal/colbatch"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
)

var (
	segsScanned atomic.Uint64
	segsPruned  atomic.Uint64
)

// SegmentsObserve records a scan's pruning outcome in the process-wide
// counters surfaced through /metrics.
func SegmentsObserve(scanned, pruned int) {
	segsScanned.Add(uint64(scanned))
	segsPruned.Add(uint64(pruned))
}

// SegmentsScanned reports segments actually scanned process-wide.
func SegmentsScanned() uint64 { return segsScanned.Load() }

// SegmentsPruned reports segments skipped by zone-map pruning
// process-wide.
func SegmentsPruned() uint64 { return segsPruned.Load() }

// SegScan is the row-side segment scan: it streams the ranges of the
// relation's rows (relation.Rows) that the surviving segments occupy as
// zero-copy sub-slices, like Scan does for whole relations.
type SegScan struct {
	batching
	Rel  *relation.Relation
	Segs []relation.Segment

	rows []tuple.Tuple
	seg  int
	pos  int
}

// NewSegScan returns a row scan over the given segments of rel.
func NewSegScan(rel *relation.Relation, segs []relation.Segment) *SegScan {
	return &SegScan{Rel: rel, Segs: segs}
}

// Schema implements Iterator.
func (s *SegScan) Schema() schema.Schema { return s.Rel.Schema }

// Open implements Iterator.
func (s *SegScan) Open() error {
	s.rows, s.seg = s.Rel.Rows(), 0
	if len(s.Segs) > 0 {
		s.pos = s.Segs[0].Lo
	}
	return nil
}

// Next implements Iterator.
func (s *SegScan) Next() ([]tuple.Tuple, error) {
	for s.seg < len(s.Segs) {
		sg := s.Segs[s.seg]
		if s.pos >= sg.Hi {
			s.seg++
			if s.seg < len(s.Segs) {
				s.pos = s.Segs[s.seg].Lo
			}
			continue
		}
		end := s.pos + s.batchCap()
		if end > sg.Hi {
			end = sg.Hi
		}
		b := s.rows[s.pos:end:end]
		s.pos = end
		return b, nil
	}
	return nil, nil
}

// Close implements Iterator.
func (s *SegScan) Close() error { return nil }

// ColSegScan is the columnar segment scan: it streams zero-copy views
// of each surviving segment's columnar image (for mapped segments, the
// views alias the file mapping directly).
type ColSegScan struct {
	batching
	Segs []relation.Segment
	// Prune, when set, resolves Segs at every Open (the planner's zone-map
	// pruning under the execution's values), appending survivors to dst.
	Prune func(dst []relation.Segment) []relation.Segment
	sch   schema.Schema

	seg  int
	pos  int
	view colbatch.Batch
}

// NewColSegScan returns a columnar scan over the given segments.
func NewColSegScan(sch schema.Schema, segs []relation.Segment) *ColSegScan {
	return &ColSegScan{Segs: segs, sch: sch}
}

// Schema implements ColIterator.
func (s *ColSegScan) Schema() schema.Schema { return s.sch }

// Open implements ColIterator.
func (s *ColSegScan) Open() error {
	if s.Prune != nil {
		s.Segs = s.Prune(s.Segs[:0])
	}
	s.seg = 0
	s.pos = 0
	return nil
}

// NextCol implements ColIterator: each batch is a view into one
// segment's image; batches never span segments.
func (s *ColSegScan) NextCol() (*colbatch.Batch, error) {
	for s.seg < len(s.Segs) {
		img := s.Segs[s.seg].Img
		if s.pos >= img.Len() {
			s.seg++
			s.pos = 0
			continue
		}
		end := s.pos + s.batchCap()
		if end > img.Len() {
			end = img.Len()
		}
		img.SliceInto(&s.view, s.pos, end)
		s.pos = end
		return &s.view, nil
	}
	return nil, nil
}

// Close implements ColIterator.
func (s *ColSegScan) Close() error { return nil }
