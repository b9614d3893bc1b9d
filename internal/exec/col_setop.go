// ColSetOp: UNION / INTERSECT / EXCEPT and DISTINCT. Membership uses the
// order-preserving full row key (values + valid time), encoded straight
// from the vectors: byte keys are bitwise equal exactly when rows are
// Equal, so a keyTable replaces hash chains and per-candidate comparisons.
// Surviving rows are only marked in the selection vector, never copied.
package exec

import (
	"fmt"

	"talign/internal/colbatch"
	"talign/internal/schema"
)

// SetOpKind enumerates the set operators (set semantics: outputs are
// duplicate free; tuples compare on values AND valid time, which after
// normalization is exactly the paper's equality-only comparison).
type SetOpKind uint8

// The set operations of Table 2's reductions.
const (
	UnionOp SetOpKind = iota
	IntersectOp
	ExceptOp
)

// String renders the operation for EXPLAIN labels.
func (k SetOpKind) String() string {
	return [...]string{"union", "intersect", "except"}[k]
}

// ColSetOp streams a set operation over union compatible inputs: union
// passes the new rows of the left input and then of the right; intersect
// and except drain the right input into a membership table first and pass
// the left rows found (not found) in it, once each. With no right input it
// is DISTINCT.
type ColSetOp struct {
	Left, Right ColIterator // Right is nil for DISTINCT
	Kind        SetOpKind
	// SizeHint is the planner's estimate of the output's rows (exact for a
	// union of bare scans); it presizes the dedup table.
	SizeHint int

	seen   *keyTable // rows already passed
	rhs    *keyTable // intersect, except: the right input's rows
	keyBuf []byte
	selBuf []int32
	phase  int // 0 = left, 1 = right (union)
}

// NewColSetOp builds the operator; the inputs must be union compatible.
func NewColSetOp(l, r ColIterator, kind SetOpKind) (*ColSetOp, error) {
	if !l.Schema().UnionCompatible(r.Schema()) {
		return nil, fmt.Errorf("exec: %s arguments not union compatible: %s vs %s", kind, l.Schema(), r.Schema())
	}
	return &ColSetOp{Left: l, Right: r, Kind: kind}, nil
}

// NewColDistinct removes exact duplicates (values and valid time) from in,
// enforcing set semantics after projections.
func NewColDistinct(in ColIterator) *ColSetOp { return &ColSetOp{Left: in} }

// Schema implements ColIterator: the left schema.
func (s *ColSetOp) Schema() schema.Schema { return s.Left.Schema() }

// Open implements ColIterator. The selection buffer must be non-nil
// before the first batch: a nil selection means "all rows", so an
// all-duplicate batch must carry a non-nil empty selection.
func (s *ColSetOp) Open() error {
	if err := s.Left.Open(); err != nil {
		return err
	}
	s.seen = s.seen.reset(clampHint(s.SizeHint))
	if s.selBuf == nil {
		s.selBuf = make([]int32, 0, 16)
	}
	s.phase = 0
	if s.Right == nil {
		return nil
	}
	if err := s.Right.Open(); err != nil || s.Kind == UnionOp {
		return err
	}
	s.rhs = s.rhs.reset(0)
	for {
		b, err := s.Right.NextCol()
		if err != nil || b == nil {
			return err
		}
		for i, nsel := 0, b.NumRows(); i < nsel; i++ {
			s.keyBuf = b.AppendRowKey(s.keyBuf[:0], b.RowAt(i))
			s.rhs.insert(s.keyBuf)
		}
	}
}

// NextCol implements ColIterator: left batches first, then (union) right,
// each refined to the rows that qualify and whose full key is new.
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
				if s.Right == nil || s.Kind != UnionOp {
					return nil, nil
				}
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
			if s.rhs != nil && (s.rhs.find(s.keyBuf) >= 0) != (s.Kind == IntersectOp) {
				continue
			}
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
	s.seen, s.rhs, s.selBuf = s.seen.small(), s.rhs.small(), kept(s.selBuf)
	err := s.Left.Close()
	if s.Right != nil {
		if err2 := s.Right.Close(); err == nil {
			err = err2
		}
	}
	return err
}
