// The segment-aware scan. A relation loaded from on-disk storage carries
// interval-partitioned segments with zone maps; the plan layer prunes
// segments whose zone is disjoint from the pushed-down predicate and
// hands the survivors to this scan. It serves exactly the rows of the
// surviving segments — pruning must never change results, only skip work —
// and leaves the pruning decision entirely to the planner.
package exec

import (
	"sync/atomic"

	"talign/internal/colbatch"
	"talign/internal/relation"
	"talign/internal/schema"
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

// ColSegScan is the segment scan: it streams zero-copy views
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
