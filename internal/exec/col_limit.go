// ColLimit: LIMIT/OFFSET with early exit. Counting is over *selected* rows —
// the logical row count NumRows — never the physical batch length, so an
// upstream filter's selection vector can't make OFFSET skip rows that
// were already filtered out (or too few of the surviving ones).
package exec

import (
	"fmt"

	"talign/internal/colbatch"
	"talign/internal/schema"
)

// ColLimit passes through at most N selected rows after skipping the
// first Offset selected rows. N < 0 means no limit (OFFSET alone). Once the
// quota is reached the child is never pulled again: the stop propagates
// upstream as simple absence of NextCol calls, so a cursor that reaches its
// limit never drains the rest of the pipeline.
type ColLimit struct {
	Input  ColIterator
	N      int64
	Offset int64

	toSkip    int64
	remaining int64
	done      bool
	iota      []int32
	selBuf    []int32
}

// NewColLimit wraps in with a limit of n rows after skipping offset rows;
// n < 0 means unlimited.
func NewColLimit(in ColIterator, n, offset int64) (*ColLimit, error) {
	if offset < 0 {
		return nil, fmt.Errorf("exec: OFFSET must be >= 0, got %d", offset)
	}
	return &ColLimit{Input: in, N: n, Offset: offset}, nil
}

// Schema implements ColIterator.
func (l *ColLimit) Schema() schema.Schema { return l.Input.Schema() }

// Open implements ColIterator.
func (l *ColLimit) Open() error {
	l.toSkip = l.Offset
	l.remaining = l.N
	l.done = false
	return l.Input.Open()
}

// NextCol implements ColIterator.
func (l *ColLimit) NextCol() (*colbatch.Batch, error) {
	if l.done || l.remaining == 0 {
		l.done = true
		return nil, nil
	}
	for {
		b, err := l.Input.NextCol()
		if err != nil {
			return nil, err
		}
		if b == nil {
			l.done = true
			return nil, nil
		}
		cnt := int64(b.NumRows())
		if cnt == 0 {
			continue
		}
		if l.toSkip >= cnt {
			l.toSkip -= cnt
			continue
		}
		if l.toSkip > 0 || (l.remaining >= 0 && cnt-l.toSkip > l.remaining) {
			sel := b.Sel
			if sel == nil {
				// Materialize the identity selection so we can trim it.
				l.iota = l.iota[:0]
				for i := 0; i < b.Len(); i++ {
					l.iota = append(l.iota, int32(i))
				}
				sel = l.iota
			}
			sel = sel[l.toSkip:]
			l.toSkip = 0
			if l.remaining >= 0 && int64(len(sel)) > l.remaining {
				sel = sel[:l.remaining]
			}
			// Copy into our own buffer: the child owns its Sel storage
			// and may reuse it, but it must see our trim on b.
			l.selBuf = append(l.selBuf[:0], sel...)
			b.Sel = l.selBuf
		}
		if l.remaining >= 0 {
			l.remaining -= int64(b.NumRows())
		}
		return b, nil
	}
}

// Close implements ColIterator.
func (l *ColLimit) Close() error {
	l.iota, l.selBuf = kept(l.iota), kept(l.selBuf)
	return l.Input.Close()
}
