// Package exec implements the batch-vectorized query executor in two
// operator families. The columnar one (ColIterator: batches of colbatch
// vectors plus a selection vector) carries every pipeline that matters:
// scans, selections, projections, limits, union, and the operators that
// hold state — ColFusedAdjust (the one ALIGN/NORMALIZE operator: the
// group-construction join of Sec. 6.1/6.3 fused with the plane-sweep
// ExecAdjustment of Sec. 6.2, Fig. 10), ColHashJoin (inner, left/right/
// full outer, semi, anti; keyless, it is the nested-loop join),
// ColHashAggregate and ColAbsorb (Def. 12). A columnar tree is built once
// per prepared plan and re-opened for every execution (see col.go). The
// row one (Iterator: batches of tuples) is what remains of the original
// executor: sorts, the sort-merge join, duplicate elimination,
// intersect/except, and row twins of the stateless columnar operators. Materialize and ToCol bridge the two, and a hash-partitioned
// parallel exchange layer (Splitter / Exchange, row and columnar) spreads
// a plan fragment across worker goroutines.
//
// Sorting, joining, grouping and set membership run over order-preserving
// byte keys (value.AppendKey / tuple.AppendKey): comparisons are memcmp,
// sorts are non-stable key sorts with a radix fast path (tuple.KeySort),
// and every hash table is the one keyTable — distinct keys in an arena,
// dense ids, open addressing — instead of Go maps, chaining and
// re-comparing values. Keys are bytewise equal exactly when their values
// Compare equal, so every operator agrees on 1 = 1.0 and NaN = NaN.
//
// Operators exchange data batch-at-a-time: Next returns a slice of tuples
// and an empty batch signals exhaustion; NextCol returns a batch and nil
// signals exhaustion. Batching amortizes the virtual dispatch across
// BatchSize rows and lets hot loops (hash-join probe, the adjust sweep)
// run over pre-sized buffers.
//
// Every row carries its valid-time interval T natively. Join nodes can be
// asked to additionally match T with equality (MatchT), which is exactly the
// "r.T = s.T" comparison the reduction rules of Table 2 append to θ.
//
// Convention: when a join condition is evaluated over the concatenated row,
// env.T holds the LEFT input row's valid time, so TStart/TEnd in residual
// conditions refer to the left side. The temporal layer projects the right
// side's timestamp into ordinary columns before joining when it needs it.
package exec

import (
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
)

// DefaultBatchSize is the number of tuples per batch when an operator's
// BatchSize field is left zero. It is large enough to amortize dispatch
// and small enough to keep a batch of rows cache resident.
const DefaultBatchSize = 1024

// Iterator is the batch-at-a-time (vectorized Volcano) operator interface.
// Usage: Open, repeated Next until it returns an empty batch, Close.
//
// Batch ownership contract: the returned slice is valid only until the
// following Next or Close call on the same iterator — operators OWN their
// output buffers and reuse them. Consumers must not retain the batch
// slice across calls; tuples they want to keep must be copied out of the
// batch, and the tuple structs copy safely (their Vals slices and the
// value slabs behind them are immutable once handed out and never
// recycled). Operator-internal scratch (expression environments, key
// buffers, arenas) likewise lives on the operator and is reused across
// rows. BatchSize is a target, not a hard cap: operators may return
// shorter batches at any time and may overshoot by a bounded amount when
// one input row expands to several output rows.
type Iterator interface {
	// Schema describes the output tuples' nontemporal attributes.
	Schema() schema.Schema
	// Open prepares the iterator (and its children) for iteration.
	Open() error
	// Next produces the next batch of tuples; an empty batch signals
	// exhaustion. Next must not be called again after it reported an empty
	// batch or an error.
	Next() ([]tuple.Tuple, error)
	// Close releases resources; it is idempotent.
	Close() error
}

// BatchSizer is implemented by every operator whose output batch size can
// be configured; the plan layer uses it to plumb Flags.BatchSize down.
type BatchSizer interface {
	SetBatchSize(n int)
}

// batching is embedded by operators: it carries the configurable batch
// size and the reusable output buffer.
type batching struct {
	// BatchSize caps (approximately) the tuples per output batch;
	// 0 means DefaultBatchSize.
	BatchSize int

	outBuf []tuple.Tuple
}

// SetBatchSize implements BatchSizer.
func (b *batching) SetBatchSize(n int) { b.BatchSize = n }

// batchCap returns the effective batch size target.
func (b *batching) batchCap() int {
	if b.BatchSize > 0 {
		return b.BatchSize
	}
	return DefaultBatchSize
}

// resetOut truncates the output buffer for the next batch.
func (b *batching) resetOut() { b.outBuf = b.outBuf[:0] }

// roomFor returns s with room for n more elements under the executor's
// buffer rule: a first buffer holds exactly what its operator has in hand,
// so a two-row result does not pay for a full batch, and a buffer that
// turns out too small is replaced by one of the next rung (nextRung) — it
// never doubles its way up through a dozen allocations.
func roomFor[T any](s []T, n, limit int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	need := len(s) + n
	if cap(s) > 0 {
		need = max(need, nextRung(cap(s), limit))
	}
	return append(make([]T, 0, need), s...)
}

// nextRung is the capacity that replaces a buffer of capacity c that turned
// out too small: keptRows — where a re-opened point query's buffers settle
// and, by the retention rule, stay — and past that the full limit.
func nextRung(c, limit int) int {
	if c < keptRows {
		return min(keptRows, limit)
	}
	return limit
}

// reserve makes room for n more output tuples — n being the input rows
// the operator has in hand — up to the batch size, under roomFor's rule.
func (b *batching) reserve(n int) {
	limit := b.batchCap()
	b.outBuf = roomFor(b.outBuf, min(n, max(limit-len(b.outBuf), 0)), limit)
}

// push appends one output tuple under reserve's growth rule.
func (b *batching) push(t tuple.Tuple) {
	if len(b.outBuf) == cap(b.outBuf) {
		b.reserve(1)
	}
	b.outBuf = append(b.outBuf, t)
}

// cursor adapts a child's batch stream to per-tuple pulls for the stateful
// operators (the joins) whose logic is inherently tuple-at-a-time. The
// per-tuple call is a concrete, inlineable method, so the virtual Next
// dispatch is still paid once per batch.
type cursor struct {
	it    Iterator
	batch []tuple.Tuple
	pos   int
}

func (c *cursor) init(it Iterator) {
	c.it = it
	c.batch = nil
	c.pos = 0
}

// pending counts the tuples of the current batch not yet handed out.
func (c *cursor) pending() int { return len(c.batch) - c.pos }

func (c *cursor) next() (tuple.Tuple, bool, error) {
	for c.pos >= len(c.batch) {
		b, err := c.it.Next()
		if err != nil {
			return tuple.Tuple{}, false, err
		}
		if len(b) == 0 {
			return tuple.Tuple{}, false, nil
		}
		c.batch, c.pos = b, 0
	}
	t := c.batch[c.pos]
	c.pos++
	return t, true, nil
}

// drainAppend appends every remaining tuple of it (already opened) to dst.
func drainAppend(dst []tuple.Tuple, it Iterator) ([]tuple.Tuple, error) {
	for {
		b, err := it.Next()
		if err != nil {
			return dst, err
		}
		if len(b) == 0 {
			return dst, nil
		}
		dst = append(dst, b...)
	}
}

// Collect drains it into a materialized relation, handling Open/Close.
func Collect(it Iterator) (*relation.Relation, error) {
	out := relation.New(it.Schema())
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	tuples, err := drainAppend(out.Tuples, it)
	if err != nil {
		return nil, err
	}
	out.Tuples = tuples
	return out, nil
}

// Scan iterates over a materialized relation, handing out zero-copy
// sub-slices of its rows (relation.Rows: derived on first use for a
// batch-born relation) as batches.
type Scan struct {
	batching
	Rel  *relation.Relation
	rows []tuple.Tuple
	pos  int
}

// NewScan returns a scan over rel.
func NewScan(rel *relation.Relation) *Scan { return &Scan{Rel: rel} }

func (s *Scan) Schema() schema.Schema { return s.Rel.Schema }

func (s *Scan) Open() error {
	s.rows, s.pos = s.Rel.Rows(), 0
	return nil
}

func (s *Scan) Next() ([]tuple.Tuple, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := min(s.pos+s.batchCap(), len(s.rows))
	b := s.rows[s.pos:end:end]
	s.pos = end
	return b, nil
}

func (s *Scan) Close() error { return nil }
