// Package exec implements the batch-vectorized query executor: one operator
// family, ColIterator, streaming batches of colbatch vectors plus a selection
// vector. Scans, selections, projections, limits, sorts and set operations
// are the ordinary operators of the host executor; the operators that hold
// state are ColFusedAdjust (the one ALIGN/NORMALIZE operator: the
// group-construction join of Sec. 6.1/6.3 fused with the plane-sweep
// ExecAdjustment of Sec. 6.2, Fig. 10), ColHashJoin (inner, left/right/full
// outer, semi, anti; hash on the equi keys or — keyless — nested loop),
// ColHashAggregate, ColSort and ColAbsorb (Def. 12). Every operator runs on
// its consumer's goroutine. A tree is built once per prepared plan
// and re-opened for every execution (see col.go); Materialize is the one
// columnar→row step, at the API boundary.
//
// Sorting, joining, grouping and set membership run over order-preserving
// byte keys (value.AppendKey / tuple.AppendKey): comparisons are memcmp,
// sorts are non-stable key sorts with a radix fast path (tuple.KeySort),
// and every hash table is the one keyTable — distinct keys in an arena,
// dense ids, open addressing — instead of Go maps, chaining and
// re-comparing values. Keys are bytewise equal exactly when their values
// Compare equal, so every operator agrees on 1 = 1.0 and NaN = NaN.
//
// Operators exchange data batch-at-a-time: NextCol returns a batch and nil
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

// DefaultBatchSize is the number of rows per batch when an operator's
// BatchSize field is left zero. It is large enough to amortize dispatch
// and small enough to keep a batch of rows cache resident.
const DefaultBatchSize = 1024

// BatchSizer is implemented by every operator whose output batch size can
// be configured; the plan layer uses it to plumb Flags.BatchSize down.
type BatchSizer interface {
	SetBatchSize(n int)
}

// batching is embedded by operators: it carries the configurable batch
// size.
type batching struct {
	// BatchSize caps (approximately) the rows per output batch;
	// 0 means DefaultBatchSize.
	BatchSize int
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
