// Columnar image cache: the vectorized executor scans relations as
// colbatch vectors, and the conversion from []tuple.Tuple is linear in
// the relation size. Relations are effectively immutable once loaded
// (appends during load, then read-only query execution), so each
// Relation memoizes one columnar image and serves it to every scan.
package relation

import (
	"talign/internal/colbatch"
	"talign/internal/tuple"
)

// colImage is a cached columnar conversion of Tuples, stamped with the
// tuple count and slice identity it was built from so external appends
// (code that grows r.Tuples directly) are detected without bookkeeping.
type colImage struct {
	img   *colbatch.Batch
	n     int
	first *tuple.Tuple // nil for empty relations
}

// Columnar returns the columnar image of the relation, converting and
// caching on first use. The image is shared: callers must treat it as
// read-only (scan it through views, never append). Mutating methods
// (Append, SortCanonical, Dedup) invalidate the cache; direct external
// appends to r.Tuples are caught by the length/identity stamp.
func (r *Relation) Columnar() *colbatch.Batch {
	if c := r.colv.Load(); c != nil && c.n == len(r.Tuples) && c.first == stamp(r) {
		return c.img
	}
	img := colbatch.FromTuples(nil, r.Schema, r.Tuples)
	r.setColumnar(img)
	return img
}

// SetColumnar installs a pre-built columnar image (the CSV reader decodes
// straight into vectors and donates the result). The image must hold
// exactly r.Tuples' rows in order.
func (r *Relation) SetColumnar(img *colbatch.Batch) {
	if img.Len() != len(r.Tuples) || img.Sel != nil {
		panic("relation: SetColumnar image does not match relation")
	}
	r.setColumnar(img)
}

// FromColumnar builds a relation over a dense columnar image (no
// selection vector) that arrived as batches rather than rows — a shard
// staged on a worker, shard results gathered on a coordinator: the rows
// are materialized once, one value slab for the whole relation, and the
// image becomes the relation's columnar form. The image must not be
// appended to afterwards.
func FromColumnar(img *colbatch.Batch) *Relation {
	r := &Relation{Schema: img.Schema, Tuples: img.Materialize(make([]tuple.Tuple, 0, img.Len()))}
	r.SetColumnar(img)
	return r
}

func (r *Relation) setColumnar(img *colbatch.Batch) {
	r.colv.Store(&colImage{img: img, n: len(r.Tuples), first: stamp(r)})
}

func stamp(r *Relation) *tuple.Tuple {
	if len(r.Tuples) == 0 {
		return nil
	}
	return &r.Tuples[0]
}

// invalidateColumnar drops the cached image; called by every mutating
// method. The nil-check keeps the common load loop (Append per row) at
// one atomic load instead of one store.
func (r *Relation) invalidateColumnar() {
	if r.colv.Load() != nil {
		r.colv.Store(nil)
	}
	r.invalidateSegments()
}
