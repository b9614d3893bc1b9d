// ColIterator is the executor's operator interface: it streams
// colbatch.Batch values — flat typed vectors plus a selection vector. Rows
// ([]tuple.Tuple) exist on one edge only, behind exactly one shim:
// Materialize, the conversion at the API boundary.
//
// # Life cycle
//
// A columnar operator tree is built once and opened many times: Open,
// NextCol until it returns nil (or the consumer has seen enough), Close —
// and then Open again, for the next execution of the same prepared plan.
// Open after Close is legal on every Col* operator; so are Close without
// Open, after a failed Open and in mid-stream. Open resets everything an
// execution can observe — cursors, counters, phases, hash tables, match
// bitmaps, pending output — and re-reads what may differ between
// executions: a bound expr.Param's frame slot (ColFilter picks its flat
// kernel from the slot's kind there), the scan's relation (Rebinds), image
// or pruned segment list, the guards' context and budget (GuardState.Arm).
// What survives Close is independent of any execution: expressions,
// filter kernels, headers, and small buffers.
//
// Retention rule: at Close an operator keeps a buffer it owns (output
// batch, selection vector, key table, chain index, permutation, store)
// only while its capacity is at most keptRows elements (keptBytes for
// byte arenas) and drops anything larger (kept, keepBatch,
// keyTable.small): an idle tree that last ran over a million rows holds
// what one that ran over two holds, a few hundred bytes an operator.
// (Keeping a whole default batch cost a workload of 8 000-row statements
// 15 % of its peak RSS.) Buffers grow by the same rungs (nextRung), so a
// point query's settle at keptRows and stay. A borrowed image (see
// imager) is dropped at every Close, and so is a view header over
// another's storage (dropView).
//
// # Batch ownership
//
// A batch returned by NextCol is owned by the producer and valid only until
// the next NextCol or Close call. Consumers MAY mutate the returned batch in
// place — in particular they may install or refine its selection vector
// (that is how Filter and Limit work) — because the producer rewrites
// every field it cares about on the next call. Consumers must NOT retain
// the batch or its column storage across calls; to keep data, copy it
// out (AppendBatch) or materialize rows.
//
// Exhaustion is signalled by a nil batch. A non-nil batch with an empty
// selection is valid and does NOT signal exhaustion; drivers keep
// pulling. After NextCol returns nil or an error, behaviour of further
// NextCol calls is undefined until the next Open.
package exec

import (
	"talign/internal/colbatch"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
)

// ColIterator is the vectorized iterator interface.
type ColIterator interface {
	// Schema describes the nontemporal attributes of the batches.
	Schema() schema.Schema
	// Open prepares the iterator for one execution; see the package
	// comment's life cycle for what it resets.
	Open() error
	// NextCol returns the next batch, or nil when exhausted. See the
	// package comment for the ownership contract.
	NextCol() (*colbatch.Batch, error)
	// Close ends the execution, keeping only what the retention rule
	// allows; the iterator may be opened again afterwards.
	Close() error
}

// ColScan streams a relation's cached columnar image as zero-copy views.
type ColScan struct {
	batching
	Rel *relation.Relation
	// Rebinds, when set, may put another relation in Rel's place at Open.
	Rebinds *Rebinds

	img  *colbatch.Batch
	memo *relation.IndexMemo // img's
	pos  int
	view colbatch.Batch
}

// NewColScan returns a columnar scan over rel.
func NewColScan(rel *relation.Relation) *ColScan { return &ColScan{Rel: rel} }

// Schema implements ColIterator.
func (s *ColScan) Schema() schema.Schema { return s.Rel.Schema }

// Open implements ColIterator; it acquires (and on first use builds) the
// image of the relation this execution reads.
func (s *ColScan) Open() error {
	s.img, s.memo = s.Rebinds.Of(s.Rel).Image()
	s.pos = 0
	return nil
}

// NextCol implements ColIterator: each batch is a view of the shared
// image — no copying. Consumers may set the view's Sel; the view header
// is rewritten on every call.
func (s *ColScan) NextCol() (*colbatch.Batch, error) {
	if s.pos >= s.img.Len() {
		return nil, nil
	}
	end := s.pos + s.batchCap()
	if end > s.img.Len() {
		end = s.img.Len()
	}
	s.img.SliceInto(&s.view, s.pos, end)
	s.pos = end
	return &s.view, nil
}

// image implements imager: the relation's image, acquired at Open.
func (s *ColScan) image() (*colbatch.Batch, error) { return s.img, nil }

// Close implements ColIterator.
func (s *ColScan) Close() error {
	s.img, s.memo = nil, nil
	dropView(&s.view)
	return nil
}

// dropView lets go of the storage a view header aliases, keeping its Cols.
func dropView(b *colbatch.Batch) {
	clear(b.Cols[:cap(b.Cols)])
	b.TS, b.TE, b.Sel = nil, nil, nil
}

// Rebind is a relation one execution scans in place of the one its plan
// was built over, of the same schema (a worker's staged shard for its own).
type Rebind struct{ From, To *relation.Relation }

// Rebinds are one execution's Rebind pairs.
type Rebinds []Rebind

// Of returns the relation r puts in rel's place, or rel (also when r is nil).
func (r *Rebinds) Of(rel *relation.Relation) *relation.Relation {
	for i := 0; r != nil && i < len(*r); i++ {
		if (*r)[i].From == rel {
			return (*r)[i].To
		}
	}
	return rel
}

// imager is implemented by an operator whose whole output, once opened,
// can be a view of an immutable image: the relation's own (ColScan), a
// header over it (ColProject), or that through a guard (ColGuard). image
// returns nil when this opening cannot offer one; a consumer that takes
// the image reads it in place of NextCol, read-only, and never after Close.
type imager interface {
	image() (*colbatch.Batch, error)
}

// imageOf returns the image an opened operator offers, or nil.
func imageOf(in ColIterator) (*colbatch.Batch, error) {
	if im, ok := in.(imager); ok {
		return im.image()
	}
	return nil, nil
}

// Materialize is the single columnar→row conversion step, at the boundary
// where a consumer wants tuples (Cursor.Next, Collect): each Next call
// materializes the selected rows of one columnar batch into fresh tuples.
type Materialize struct {
	Input ColIterator
	out   []tuple.Tuple
}

// NewMaterialize reads in, which the caller opens and closes, as tuples.
func NewMaterialize(in ColIterator) *Materialize { return &Materialize{Input: in} }

// Next returns the next batch of tuples; an empty batch signals exhaustion.
// The slice is reused by the following Next; the tuples' value slabs are
// fresh per call and safe to retain.
func (m *Materialize) Next() ([]tuple.Tuple, error) {
	m.out = m.out[:0]
	for {
		b, err := m.Input.NextCol()
		if err != nil || b == nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue // fully filtered batch; keep pulling
		}
		return b.Materialize(m.out), nil
	}
}

// Collect drains it into a row-born relation, handling Open/Close.
func Collect(it ColIterator) (*relation.Relation, error) {
	out := relation.New(it.Schema())
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		b, err := it.NextCol()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.Tuples = b.Materialize(out.Tuples)
	}
}

// CollectColumnar drains it into a batch-born relation — no tuple is built —
// handling Open/Close. A borrowed image is not copied, but gets a header of
// its own: the relation outlives the operator whose header it was.
func CollectColumnar(it ColIterator) (*relation.Relation, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	own := new(colbatch.Batch)
	img, err := drainColumnar(it, 0, own)
	if err != nil {
		return nil, err
	}
	if img != own {
		img.SliceInto(own, 0, img.Len())
	}
	return relation.FromColumnar(own), nil
}

// ApplyColBatch sets the batch size on an operator when it is configurable.
func ApplyColBatch(it ColIterator, n int) ColIterator {
	if n > 0 {
		if bs, ok := it.(BatchSizer); ok {
			bs.SetBatchSize(n)
		}
	}
	return it
}

// maxSizeHint bounds what a planner estimate may presize: estimates can be
// off by orders of magnitude, and past this point growing costs a handful
// of allocations while a wrong guess costs real memory.
const maxSizeHint = 1 << 16

// clampHint turns a planner estimate into a safe presize.
func clampHint(est int) int { return min(max(est, 0), maxSizeHint) }

// drainColumnar materializes an opened columnar stream as one batch. A
// stream that offers an image (imager) hands it over instead of a copy:
// the result is only ever read, so sharing is safe, and it skips one
// full-input copy per execution. Anything else is copied column-wise into
// store, the caller's own (emptied here, and presized from est, the
// planner's row estimate for the stream; 0 = unknown).
func drainColumnar(in ColIterator, est int, store *colbatch.Batch) (*colbatch.Batch, error) {
	if img, err := imageOf(in); img != nil || err != nil {
		return img, err
	}
	store.ResetSchema(in.Schema())
	if est = clampHint(est); est > store.Cap() {
		store.Reserve(est)
	}
	for {
		b, err := in.NextCol()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return store, nil
		}
		store.AppendBatch(b)
	}
}

// keptRows is the retention rule's bound, in elements, and keptBytes its
// bound for byte arenas (that many two-integer keys).
const (
	keptRows  = DefaultBatchSize / 16
	keptBytes = 16 * keptRows
)

// kept applies the retention rule to a buffer at Close: s emptied, or nil
// when it outgrew one default batch.
func kept[T any](s []T) []T {
	if cap(s) > keptRows {
		return nil
	}
	return s[:0]
}

// keepBatch is kept for an operator's own batch.
func keepBatch(b *colbatch.Batch) {
	if b.Cap() > keptRows {
		*b = colbatch.Batch{}
		return
	}
	b.Reset()
}

// zeroed returns s resized to n zero elements, reallocating only to grow.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reserveOut makes room for n more rows in an operator's reused output
// batch. The first buffer is sized by the rows the operator has in hand,
// so a two-row result does not pay for a full batch; a batch that outgrows
// it is regrown to the next rung (nextRung), instead of doubling its way
// up column by column.
func reserveOut(b *colbatch.Batch, n, limit int) {
	if b.Cap()-b.Len() >= n {
		return
	}
	if b.Cap() > 0 {
		n = max(n, nextRung(b.Cap(), limit)-b.Len())
	}
	b.Reserve(n)
}
