// Segment seam: a relation loaded from on-disk storage is born from the
// list of columnar segments the store keeps it as — each a contiguous
// valid-time partition with a zone map. Scans that know the segment list
// serve one zero-copy image per segment and skip segments whose zone is
// disjoint from a pushed-down predicate.
package relation

import (
	"talign/internal/colbatch"
	"talign/internal/schema"
)

// Segment is one interval-partitioned slice of a relation: a columnar
// image (possibly memory-mapped, read-only), its zone map, and the row
// range [Lo, Hi) it occupies in the relation's row order (Rows, Columnar);
// the ranges of a relation's segments tile [0, Len()).
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

// FromSegments returns a batch-born relation over the segment list a
// storage loader decoded. The ranges must tile [0, n) in order and each
// segment's image must be dense and hold exactly Hi-Lo rows. The relation
// holds the segments — and through them their Owners — for as long as it
// is reachable; it copies nothing and builds no tuple.
func FromSegments(s schema.Schema, segs []Segment) *Relation {
	b := &batchForm{segs: segs, parts: make([]*colbatch.Batch, len(segs))}
	for i, sg := range segs {
		if sg.Lo != b.n || sg.Img == nil || sg.Img.Sel != nil || sg.Img.Len() != sg.Hi-sg.Lo {
			panic("relation: FromSegments list does not tile the relation")
		}
		b.n, b.parts[i] = sg.Hi, sg.Img
	}
	return &Relation{Schema: s, born: b}
}

// Segments returns the segment list the relation was born from, or nil
// when it was not assembled from segments (row-born, FromColumnar, or
// mutated since). Callers must treat segment images as read-only.
func (r *Relation) Segments() []Segment {
	if r.born != nil {
		return r.born.segs
	}
	return nil
}
