// Columnar forms. The vectorized executor scans relations as colbatch
// vectors. A batch-born relation is such vectors: it holds the images it
// arrived as, and tuples only once a row reader asks (Rows). A row-born
// relation memoizes one columnar image of its Tuples for every scan.
package relation

import (
	"slices"
	"sync"

	"talign/internal/colbatch"
	"talign/internal/tuple"
)

// batchForm is what a batch-born relation holds in place of tuples: the
// dense images it arrived as, in row order, and their row count, fixed at
// construction and read-only. rows and img are derived on demand, once.
type batchForm struct {
	n     int
	parts []*colbatch.Batch // one for FromColumnar, one per segment for FromSegments
	segs  []Segment         // FromSegments only

	rowsOnce, imgOnce sync.Once
	rows              []tuple.Tuple
	img               *colbatch.Batch
	memo              IndexMemo
}

// colImage is a row-born relation's cached columnar conversion, stamped
// with the tuple count and slice identity it was built from so external
// appends (code that grows r.Tuples directly) are detected.
type colImage struct {
	img   *colbatch.Batch
	n     int
	first *tuple.Tuple // nil for empty relations
	memo  IndexMemo
}

// IndexMemo holds the read-only indexes built over one columnar image (the
// executor's group indexes), each under the image columns it reads. It
// lives and dies with the image: a re-stamped row-born image starts empty.
type IndexMemo struct {
	mu      sync.Mutex
	entries []*memoEntry
}

type memoEntry struct {
	cols []int
	once sync.Once
	v    any
	err  error
}

// Get returns the index over the image columns cols, made by build under a
// sync.Once the first time anyone asks (built: by this call), then shared.
func (m *IndexMemo) Get(cols []int, build func() (any, error)) (v any, built bool, err error) {
	m.mu.Lock()
	i := slices.IndexFunc(m.entries, func(e *memoEntry) bool { return slices.Equal(e.cols, cols) })
	if i < 0 {
		i, m.entries = len(m.entries), append(m.entries, &memoEntry{cols: slices.Clone(cols)})
	}
	e := m.entries[i]
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build(); built = true })
	return e.v, built, e.err
}

// FromColumnar returns a batch-born relation over a dense image (no
// selection vector) that arrived as batches: a decoded CSV file, a shard
// staged on a worker, results gathered on a coordinator. The relation
// takes the image over — nothing is copied, no tuple built — and the
// caller must not append to it or modify it afterwards.
func FromColumnar(img *colbatch.Batch) *Relation {
	if img.Sel != nil {
		panic("relation: FromColumnar over a selection")
	}
	return &Relation{Schema: img.Schema, born: &batchForm{n: img.Len(), parts: []*colbatch.Batch{img}}}
}

// Columnar is Image's image.
func (r *Relation) Columnar() *colbatch.Batch {
	img, _ := r.Image()
	return img
}

// Image returns the rows as one dense image, shared and read-only (scan it
// through views, never append), and its index memo. A relation born from
// one image returns it; one born from segments concatenates their columns
// on first use and keeps that. A row-born relation converts Tuples on first
// use and caches the result until a mutating method, or the stamp catching
// a direct append to Tuples, drops it.
func (r *Relation) Image() (*colbatch.Batch, *IndexMemo) {
	if b := r.born; b != nil {
		b.imgOnce.Do(func() {
			if len(b.parts) == 1 {
				b.img = b.parts[0]
				return
			}
			b.img = colbatch.New(r.Schema)
			b.img.Reserve(b.n)
			for _, p := range b.parts {
				b.img.AppendBatch(p)
			}
		})
		return b.img, &b.memo
	}
	c := r.colv.Load()
	if c == nil || c.n != len(r.Tuples) || c.first != stamp(r) {
		c = &colImage{img: colbatch.FromTuples(nil, r.Schema, r.Tuples), n: len(r.Tuples), first: stamp(r)}
		r.colv.Store(c)
	}
	return c.img, &c.memo
}

// Parts returns the images a batch-born relation holds, in row order, or
// nil for a row-born one, whose data is Tuples. Readers that work image
// by image (statistics, partitioning) use it so that a segmented relation
// is not concatenated for them. Read-only, like the slice itself.
func (r *Relation) Parts() []*colbatch.Batch {
	if r.born != nil {
		return r.born.parts
	}
	return nil
}

// ValidTimes returns the rows' valid-time columns in row order, from
// whichever form the relation holds: a relation of one image returns that
// image's own arrays, any other fresh ones. Read-only either way.
func (r *Relation) ValidTimes() (ts, te []int64) {
	parts := r.Parts()
	if len(parts) == 1 {
		return parts[0].TS, parts[0].TE
	}
	ts, te = make([]int64, 0, r.Len()), make([]int64, 0, r.Len())
	for _, p := range parts {
		ts, te = append(ts, p.TS...), append(te, p.TE...)
	}
	for _, t := range r.Tuples {
		ts, te = append(ts, t.T.Ts), append(te, t.T.Te)
	}
	return ts, te
}

func stamp(r *Relation) *tuple.Tuple {
	if len(r.Tuples) == 0 {
		return nil
	}
	return &r.Tuples[0]
}

// invalidateColumnar drops a row-born relation's cached image; called by
// every mutating method. The nil-check keeps the common load loop (Append
// per row) at one atomic load instead of one store.
func (r *Relation) invalidateColumnar() {
	if r.colv.Load() != nil {
		r.colv.Store(nil)
	}
}
