package exec

import (
	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/tuple"
)

// SortKey is one ordering term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// ColSort drains its input into a columnar store and emits it ordered by
// Keys (values compare with the total order of the value package; ω sorts
// first). Every row gets an order-preserving byte key — sort terms first
// (DESC terms bitwise complemented), then the full row key as a
// deterministic tie break — and a row permutation is sorted bytewise, with
// a radix fast path for fixed-width keys (tuple.KeySort); output batches
// gather the store's rows through it. The sort is not stable; the tie
// break makes the order total.
type ColSort struct {
	batching
	Input ColIterator
	Keys  []SortKey
	// SizeHint is the planner's estimate of the input's rows; it presizes
	// the store when the input offers no image.
	SizeHint int

	enc   rowExprs
	store *colbatch.Batch // own, or a borrowed image
	own   colbatch.Batch
	perm  []int32
	keys  [][]byte
	arena []byte
	outB  colbatch.Batch
	pos   int
}

// NewColSort builds a sort over in.
func NewColSort(in ColIterator, keys ...SortKey) *ColSort {
	es := make([]expr.Expr, len(keys))
	for i, k := range keys {
		es[i] = k.Expr
	}
	return &ColSort{Input: in, Keys: keys, enc: rowExprs{es: es}}
}

// Schema implements ColIterator.
func (s *ColSort) Schema() schema.Schema { return s.Input.Schema() }

// Open implements ColIterator: it consumes the whole input and sorts.
func (s *ColSort) Open() error {
	if err := s.Input.Open(); err != nil {
		return err
	}
	var err error
	if s.store, err = drainColumnar(s.Input, s.SizeHint, &s.own); err != nil {
		return err
	}
	n := s.store.Len()
	arena, keys := s.arena[:0], s.keys[:0]
	for row := 0; row < n; row++ {
		start := len(arena)
		s.enc.at(s.store, row)
		for k := range s.Keys {
			v, err := s.enc.eval(k)
			if err != nil {
				return err
			}
			mark := len(arena)
			arena = v.AppendKey(arena)
			if s.Keys[k].Desc {
				for j := mark; j < len(arena); j++ {
					arena[j] ^= 0xff
				}
			}
		}
		arena = s.store.AppendRowKey(arena, row)
		keys = append(keys, arena[start:len(arena):len(arena)])
	}
	s.perm = identityPerm(s.perm[:0], n)
	tuple.KeySort(s.perm, keys)
	s.arena, s.keys, s.pos = arena, keys, 0
	s.outB.ResetSchema(s.Schema())
	return nil
}

// NextCol implements ColIterator.
func (s *ColSort) NextCol() (*colbatch.Batch, error) {
	if s.pos >= len(s.perm) {
		return nil, nil
	}
	end := min(s.pos+s.batchCap(), len(s.perm))
	s.outB.Reset()
	reserveOut(&s.outB, end-s.pos, s.batchCap())
	s.outB.AppendRows(s.store, s.perm[s.pos:end])
	s.pos = end
	return &s.outB, nil
}

// Close implements ColIterator.
func (s *ColSort) Close() error {
	s.store = nil
	keepBatch(&s.own)
	keepBatch(&s.outB)
	s.perm, s.keys = kept(s.perm), kept(s.keys)
	if cap(s.arena) > keptBytes {
		s.arena = nil
	}
	return s.Input.Close()
}
