// ColSetOp: vectorized UNION. Dedup works exactly like the row SetOp's —
// a persistent keyTable over full row keys (values + valid time) — but
// the keys are encoded straight from the vectors and surviving rows are
// only marked in the selection vector, never copied. Intersect/except
// need the full right side first and stay on the row path for now.
package exec

import (
	"fmt"

	"talign/internal/colbatch"
	"talign/internal/schema"
)

// ColSetOp streams the union of two columnar inputs with set-semantics
// dedup across both.
type ColSetOp struct {
	Left, Right ColIterator
	// SizeHint is the planner's estimate of the union's rows (exact over
	// bare scans); it presizes the dedup table.
	SizeHint int

	seen   *keyTable
	keyBuf []byte
	selBuf []int32
	phase  int // 0 = left, 1 = right
}

// NewColSetOp returns a columnar union; the inputs must be union
// compatible (same check as the row operator).
func NewColSetOp(l, r ColIterator) (*ColSetOp, error) {
	if !l.Schema().UnionCompatible(r.Schema()) {
		return nil, fmt.Errorf("exec: set operation inputs not union compatible: %s vs %s", l.Schema(), r.Schema())
	}
	return &ColSetOp{Left: l, Right: r}, nil
}

// Schema implements ColIterator (the left schema, as on the row side).
func (s *ColSetOp) Schema() schema.Schema { return s.Left.Schema() }

// Open implements ColIterator. The selection buffer must be non-nil
// before the first batch: a nil selection means "all rows", so an
// all-duplicate batch must carry a non-nil empty selection.
func (s *ColSetOp) Open() error {
	if err := s.Left.Open(); err != nil {
		return err
	}
	if err := s.Right.Open(); err != nil {
		return err
	}
	s.seen = s.seen.reset(clampHint(s.SizeHint))
	if s.selBuf == nil {
		s.selBuf = make([]int32, 0, 16)
	}
	s.phase = 0
	return nil
}

// NextCol implements ColIterator: left batches first, then right, each
// refined to the rows whose full key is new.
func (s *ColSetOp) NextCol() (*colbatch.Batch, error) {
	for {
		var b *colbatch.Batch
		var err error
		if s.phase == 0 {
			b, err = s.Left.NextCol()
			if err != nil {
				return nil, err
			}
			if b == nil {
				s.phase = 1
				continue
			}
		} else {
			b, err = s.Right.NextCol()
			if err != nil || b == nil {
				return nil, err
			}
		}
		out := s.selBuf[:0]
		for i, nsel := 0, b.NumRows(); i < nsel; i++ {
			row := b.RowAt(i)
			s.keyBuf = b.AppendRowKey(s.keyBuf[:0], row)
			if _, added := s.seen.insert(s.keyBuf); added {
				out = append(out, int32(row))
			}
		}
		s.selBuf = out
		b.Sel = out
		return b, nil
	}
}

// Close implements ColIterator.
func (s *ColSetOp) Close() error {
	s.seen, s.selBuf = s.seen.small(), kept(s.selBuf)
	err1 := s.Left.Close()
	err2 := s.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
