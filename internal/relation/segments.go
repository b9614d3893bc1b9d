// Segment seam: a relation loaded from on-disk storage carries, besides
// its tuples and memoized columnar image, the list of columnar segments
// it was assembled from — each a contiguous valid-time partition with a
// zone map. Scans that know the segment list can serve one zero-copy
// image per segment and skip segments whose zone is disjoint from a
// pushed-down predicate.
package relation

import (
	"talign/internal/colbatch"
	"talign/internal/tuple"
)

// Segment is one interval-partitioned slice of a relation: a columnar
// image (possibly memory-mapped, read-only), its zone map, and the row
// range [Lo, Hi) it occupies in the relation's Tuples slice. Loaders
// materialize tuples in segment order, so the ranges tile [0, Len()).
//
// Owner keeps the memory Img aliases alive — the storage layer's owner of
// a mapped segment file, which unmaps it once no Segment references it;
// nil for heap images. Nobody reads it: holding the Segment is the point.
type Segment struct {
	Img   *colbatch.Batch
	Zone  colbatch.Zone
	Lo    int
	Hi    int
	Owner any
}

// segImage stamps a segment list the same way colImage stamps the
// columnar cache, so external mutation of Tuples drops it.
type segImage struct {
	segs  []Segment
	n     int
	first *tuple.Tuple
}

// Segments returns the relation's segment list, or nil when the
// relation was not assembled from segments (in-memory loads) or has
// been mutated since. Callers must treat segment images as read-only.
func (r *Relation) Segments() []Segment {
	if s := r.segv.Load(); s != nil && s.n == len(r.Tuples) && s.first == stamp(r) {
		return s.segs
	}
	return nil
}

// SetSegments installs the segment list a loader assembled the relation
// from. The ranges must tile [0, Len()) in order, and each segment's
// image must hold exactly Hi-Lo rows.
func (r *Relation) SetSegments(segs []Segment) {
	want := 0
	for _, sg := range segs {
		if sg.Lo != want || sg.Hi < sg.Lo || sg.Img == nil || sg.Img.Len() != sg.Hi-sg.Lo {
			panic("relation: SetSegments list does not tile the relation")
		}
		want = sg.Hi
	}
	if want != len(r.Tuples) {
		panic("relation: SetSegments list does not cover the relation")
	}
	r.segv.Store(&segImage{segs: segs, n: len(r.Tuples), first: stamp(r)})
}

// invalidateSegments drops the segment list; called alongside
// invalidateColumnar by every mutating method.
func (r *Relation) invalidateSegments() {
	if r.segv.Load() != nil {
		r.segv.Store(nil)
	}
}
