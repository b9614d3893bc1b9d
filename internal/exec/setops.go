package exec

import (
	"fmt"

	"talign/internal/schema"
	"talign/internal/tuple"
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

// SetOp implements UNION / INTERSECT / EXCEPT over union compatible
// inputs. Membership uses the order-preserving tuple key encoding: byte
// keys are bitwise equal exactly when tuples are Equal, so an
// arena-backed byte-key table (keyTable) replaces hash chains, per-candidate tuple
// comparisons and per-key string allocations.
type SetOp struct {
	batching
	Left, Right Iterator
	Kind        SetOpKind

	seen   *keyTable // dedup / membership table
	rhs    *keyTable // right side membership (intersect/except)
	keyBuf []byte
	phase  int
	done   bool
}

// NewSetOp builds the node; it validates union compatibility.
func NewSetOp(l, r Iterator, kind SetOpKind) (*SetOp, error) {
	if !l.Schema().UnionCompatible(r.Schema()) {
		return nil, fmt.Errorf("exec: %s arguments not union compatible: %s vs %s", kind, l.Schema(), r.Schema())
	}
	return &SetOp{Left: l, Right: r, Kind: kind}, nil
}

func (s *SetOp) Schema() schema.Schema { return s.Left.Schema() }

// key encodes t into the reused buffer; valid until the next call.
func (s *SetOp) key(t tuple.Tuple) []byte {
	s.keyBuf = t.AppendKey(s.keyBuf[:0])
	return s.keyBuf
}

// memberAdd inserts t into m if absent; it reports whether t was added.
func (s *SetOp) memberAdd(m *keyTable, t tuple.Tuple) bool {
	_, added := m.insert(s.key(t))
	return added
}

func (s *SetOp) member(m *keyTable, t tuple.Tuple) bool {
	return m.find(s.key(t)) >= 0
}

func (s *SetOp) Open() error {
	if err := s.Left.Open(); err != nil {
		return err
	}
	if err := s.Right.Open(); err != nil {
		return err
	}
	s.seen = s.seen.reset(0)
	s.phase = 0
	s.done = false
	if s.Kind == IntersectOp || s.Kind == ExceptOp {
		s.rhs = s.rhs.reset(0)
		for {
			batch, err := s.Right.Next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				break
			}
			for i := range batch {
				s.memberAdd(s.rhs, batch[i])
			}
		}
	}
	return nil
}

func (s *SetOp) Next() ([]tuple.Tuple, error) {
	s.resetOut()
	target := s.batchCap()
	for len(s.outBuf) < target && !s.done {
		switch s.phase {
		case 0: // left input
			batch, err := s.Left.Next()
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				if s.Kind == UnionOp {
					s.phase = 1
					continue
				}
				s.done = true
				break
			}
			s.reserve(len(batch))
			for i := range batch {
				t := batch[i]
				switch s.Kind {
				case UnionOp:
					if s.memberAdd(s.seen, t) {
						s.push(t)
					}
				case IntersectOp:
					if s.member(s.rhs, t) && s.memberAdd(s.seen, t) {
						s.push(t)
					}
				case ExceptOp:
					if !s.member(s.rhs, t) && s.memberAdd(s.seen, t) {
						s.push(t)
					}
				}
			}
		case 1: // union: right input
			batch, err := s.Right.Next()
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				s.done = true
				break
			}
			s.reserve(len(batch))
			for i := range batch {
				if s.memberAdd(s.seen, batch[i]) {
					s.push(batch[i])
				}
			}
		}
	}
	return s.outBuf, nil
}

func (s *SetOp) Close() error {
	s.seen = nil
	s.rhs = nil
	err1 := s.Left.Close()
	err2 := s.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Distinct removes exact duplicates (values and valid time), enforcing
// set semantics after projections. Like SetOp it keys a byte-key set
// with the order-preserving tuple encoding instead of hash chains.
type Distinct struct {
	batching
	Input Iterator

	seen   *keyTable
	keyBuf []byte
	done   bool
}

// NewDistinct builds the node.
func NewDistinct(input Iterator) *Distinct {
	return &Distinct{Input: input}
}

func (d *Distinct) Schema() schema.Schema { return d.Input.Schema() }

func (d *Distinct) Open() error {
	d.seen = d.seen.reset(0)
	d.done = false
	return d.Input.Open()
}

func (d *Distinct) Next() ([]tuple.Tuple, error) {
	d.resetOut()
	target := d.batchCap()
	for len(d.outBuf) < target && !d.done {
		batch, err := d.Input.Next()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			d.done = true
			break
		}
		d.reserve(len(batch))
		for i := range batch {
			d.keyBuf = batch[i].AppendKey(d.keyBuf[:0])
			if _, added := d.seen.insert(d.keyBuf); added {
				d.push(batch[i])
			}
		}
	}
	return d.outBuf, nil
}

func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}
