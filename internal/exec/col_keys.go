package exec

import (
	"slices"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/value"
)

// rowExprs evaluates a fixed list of expressions on physical batch rows:
// expr.Eval over an Env positioned on the row, which reads the columns in
// place. It is how the columnar operators compute projections, equi keys,
// group keys, sort keys and aggregate arguments without materializing
// tuples.
type rowExprs struct {
	es  []expr.Expr
	env expr.Env
}

// at positions the evaluator on physical row `row` of b.
func (r *rowExprs) at(b *colbatch.Batch, row int) {
	r.env.L, r.env.LRow, r.env.T = b, row, b.Interval(row)
}

// eval evaluates expression i on the current row.
func (r *rowExprs) eval(i int) (value.Value, error) { return r.es[i].Eval(&r.env) }

// appendKey appends the order-preserving encoding of every expression's
// value on physical row `row` of b; hasNull reports an ω component (an
// equi key that can never match).
func (r *rowExprs) appendKey(dst []byte, b *colbatch.Batch, row int) (key []byte, hasNull bool, err error) {
	r.at(b, row)
	for i := range r.es {
		v, err := r.eval(i)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			hasNull = true
		}
		dst = v.AppendKey(dst)
	}
	return dst, hasNull, nil
}

// identityPerm appends the row permutation 0, 1, …, n-1 to dst.
func identityPerm(dst []int32, n int) []int32 {
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// equiSides splits equi pairs into the left and right expression lists.
func equiSides(keys []expr.EquiPair) (l, r []expr.Expr) {
	for _, k := range keys {
		l, r = append(l, k.Left), append(r, k.Right)
	}
	return l, r
}

// chainIndex is the hash join's key → build rows multimap: a keyTable of
// the distinct equi keys whose ids head chains threaded through one int32
// per build row. Rows whose key has an ω component are in no chain — they
// can never match.
type chainIndex struct {
	table *keyTable
	head  []int32 // per key id: first build row + 1
	next  []int32 // per build row: next row with the same key + 1; 0 ends
	kb    []byte
}

// build indexes every physical row of store under keys, over whatever
// storage release left from the previous execution. Rows are threaded back
// to front, so a chain lists its rows in store order; with no keys at all
// every row is in the one chain of the empty key.
func (x *chainIndex) build(keys *rowExprs, store *colbatch.Batch) error {
	n := store.Len()
	x.table = x.table.reset(n)
	x.head, x.next = slices.Grow(x.head[:0], n), zeroed(x.next, n)
	for j := n - 1; j >= 0; j-- {
		var hasNull bool
		var err error
		if x.kb, hasNull, err = keys.appendKey(x.kb[:0], store, j); err != nil {
			return err
		}
		if hasNull {
			continue
		}
		id, added := x.table.insert(x.kb)
		if added {
			x.head = append(x.head, 0)
		}
		x.next[j] = x.head[id]
		x.head[id] = int32(j) + 1
	}
	return nil
}

// release applies the retention rule at its operator's Close.
func (x *chainIndex) release() {
	x.table, x.head, x.next = x.table.small(), kept(x.head), kept(x.next)
}

// first returns the first build row + 1 of key's chain, 0 for no match.
func (x *chainIndex) first(key []byte) int32 {
	if id := x.table.find(key); id >= 0 {
		return x.head[id]
	}
	return 0
}
