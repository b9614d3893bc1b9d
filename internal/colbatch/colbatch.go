// Package colbatch implements the columnar batch representation of the
// vectorized executor: one typed flat slice per attribute column, a
// validity bitmap marking ω (NULL) positions, dedicated T-start/T-end
// int64 columns for the valid-time interval, and an optional selection
// vector of surviving row indices.
//
// A Batch is the unit of data flow on the columnar side of the exec
// pipeline (exec.ColIterator). Operators that only qualify rows — Filter,
// Limit, set-op dedup — write the selection vector and never copy column
// data; Project shuffles column headers; only group-producing operators
// (adjust, exchange routing) append into fresh vectors.
//
// # Physical layout
//
// Each Vec carries the declared schema kind plus a physical storage tag.
// A column whose values all match the declared kind stores them in one
// flat typed slice (Ints, Floats, Strs, Bools, or IvTs/IvTe for interval
// columns); ω positions are marked in the validity bitmap and hold the
// zero element of the typed slice. The engine's relations permit two
// forms of heterogeneity — int/float mixing within a numeric column and
// untyped (KindNull-declared) columns — and a Vec that observes a value
// of unexpected kind demotes itself to boxed storage (Any), preserving
// exact row semantics at the cost of the fast path. Demotion is per
// column and per batch; homogeneous data never pays for it.
//
// # Selection vectors
//
// Sel, when non-nil, lists the physical row indices (strictly ascending)
// that are logically present; when nil, all Len() rows are present.
// NumRows is the logical row count, RowAt(i) maps logical position to
// physical row. Column storage and the TS/TE arrays always have physical
// length Len(), regardless of selection.
//
// # Key encoding
//
// AppendKey / AppendValsKey / AppendRowKey produce byte keys that are
// byte-identical to value.AppendKey / tuple.AppendKeyVals /
// tuple.AppendKey on the corresponding row values. Identity holds by
// construction: the encoders build a value.Value (a zero-allocation
// struct) for each cell and call its AppendKey. Sort, hash and set-op
// code can therefore mix keys from row and columnar sources freely.
package colbatch

import (
	"slices"

	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// phys tags the storage actually used by a Vec, independent of the
// declared kind.
type phys uint8

const (
	physInt phys = iota
	physFloat
	physStr
	physBool
	physInterval
	physAny // boxed fallback for heterogeneous columns
)

func physFor(k value.Kind) phys {
	switch k {
	case value.KindInt:
		return physInt
	case value.KindFloat:
		return physFloat
	case value.KindString:
		return physStr
	case value.KindBool:
		return physBool
	case value.KindInterval:
		return physInterval
	}
	return physAny // KindNull (untyped) columns are always boxed
}

// Vec is a single column: a flat typed slice plus a validity bitmap.
// The zero Vec is not usable; build vectors through Batch methods or
// IntVec.
type Vec struct {
	Kind value.Kind // declared schema kind
	ph   phys

	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	IvTs   []int64 // interval starts
	IvTe   []int64 // interval ends
	Any    []value.Value

	// nulls is a packed bitmap; bit (nullOff+i) set means row i is ω.
	// Words are appended zeroed on demand, so a short bitmap means
	// "all further rows valid". Views share the parent's words via
	// nullOff.
	nulls   []uint64
	nullOff int
}

// IntVec wraps an existing int64 slice as a null-free int column; used to
// project the TS/TE time columns as ordinary attributes without copying.
func IntVec(xs []int64) Vec {
	return Vec{Kind: value.KindInt, ph: physInt, Ints: xs}
}

func (v *Vec) init(k value.Kind) {
	*v = Vec{Kind: k, ph: physFor(k)}
}

// IsNull reports whether row i holds ω.
func (v *Vec) IsNull(i int) bool {
	idx := v.nullOff + i
	w := idx >> 6
	if w >= len(v.nulls) {
		return false
	}
	return v.nulls[w]&(1<<(idx&63)) != 0
}

// setNull marks row i of an owned (nullOff == 0) column as ω. The bitmap
// extends with zeroed words on demand; when it has to grow it grows once,
// to cover the typed storage's whole capacity, instead of doubling its way
// up word by word.
func (v *Vec) setNull(i int) {
	w := i >> 6
	if w >= len(v.nulls) {
		if w >= cap(v.nulls) {
			words := max(w+1, (v.capRows()+63)>>6)
			v.nulls = append(make([]uint64, 0, words), v.nulls...)
		}
		old := len(v.nulls)
		v.nulls = v.nulls[:w+1]
		clear(v.nulls[old:]) // words past a reset's [:0] are stale
	}
	v.nulls[w] |= 1 << (i & 63)
}

// IntsRaw returns the flat int64 storage, or nil,false when the column is
// not in int layout (demoted or non-int). Callers must pair reads with
// IsNull checks.
func (v *Vec) IntsRaw() ([]int64, bool) {
	if v.ph != physInt {
		return nil, false
	}
	return v.Ints, true
}

// FloatsRaw is IntsRaw for float64 storage.
func (v *Vec) FloatsRaw() ([]float64, bool) {
	if v.ph != physFloat {
		return nil, false
	}
	return v.Floats, true
}

// Len returns the physical row count of the column.
func (v *Vec) Len() int {
	switch v.ph {
	case physInt:
		return len(v.Ints)
	case physFloat:
		return len(v.Floats)
	case physStr:
		return len(v.Strs)
	case physBool:
		return len(v.Bools)
	case physInterval:
		return len(v.IvTs)
	}
	return len(v.Any)
}

// capRows returns the row capacity of the column's active storage.
func (v *Vec) capRows() int {
	switch v.ph {
	case physInt:
		return cap(v.Ints)
	case physFloat:
		return cap(v.Floats)
	case physStr:
		return cap(v.Strs)
	case physBool:
		return cap(v.Bools)
	case physInterval:
		return cap(v.IvTs)
	}
	return cap(v.Any)
}

// reserve makes room for n more rows in the active storage.
func (v *Vec) reserve(n int) {
	switch v.ph {
	case physInt:
		v.Ints = slices.Grow(v.Ints, n)
	case physFloat:
		v.Floats = slices.Grow(v.Floats, n)
	case physStr:
		v.Strs = slices.Grow(v.Strs, n)
	case physBool:
		v.Bools = slices.Grow(v.Bools, n)
	case physInterval:
		v.IvTs = slices.Grow(v.IvTs, n)
		v.IvTe = slices.Grow(v.IvTe, n)
	default:
		v.Any = slices.Grow(v.Any, n)
	}
}

// Value boxes row i back into a value.Value.
func (v *Vec) Value(i int) value.Value {
	if v.IsNull(i) {
		return value.Null
	}
	switch v.ph {
	case physInt:
		return value.NewInt(v.Ints[i])
	case physFloat:
		return value.NewFloat(v.Floats[i])
	case physStr:
		return value.NewString(v.Strs[i])
	case physBool:
		return value.NewBool(v.Bools[i])
	case physInterval:
		return value.NewInterval(interval.Interval{Ts: v.IvTs[i], Te: v.IvTe[i]})
	}
	return v.Any[i]
}

// Int returns row i's int payload with the same panic semantics as
// value.Value.Int (ω or a non-int value panics).
func (v *Vec) Int(i int) int64 {
	if v.ph == physInt && !v.IsNull(i) {
		return v.Ints[i]
	}
	return v.Value(i).Int()
}

// AppendKey appends the order-preserving key encoding of row i to dst,
// byte-identical to Value(i).AppendKey.
func (v *Vec) AppendKey(dst []byte, i int) []byte {
	if v.IsNull(i) {
		return value.Null.AppendKey(dst)
	}
	switch v.ph {
	case physInt:
		return value.NewInt(v.Ints[i]).AppendKey(dst)
	case physFloat:
		return value.NewFloat(v.Floats[i]).AppendKey(dst)
	case physStr:
		return value.NewString(v.Strs[i]).AppendKey(dst)
	case physBool:
		return value.NewBool(v.Bools[i]).AppendKey(dst)
	case physInterval:
		iv := interval.Interval{Ts: v.IvTs[i], Te: v.IvTe[i]}
		return value.NewInterval(iv).AppendKey(dst)
	}
	return v.Any[i].AppendKey(dst)
}

// Append appends one value, demoting the column to boxed storage on a
// kind mismatch (numeric mixing, values in untyped columns). A caller that
// appends column by column declares the batch's row count with SetLen.
func (v *Vec) Append(x value.Value) {
	if x.IsNull() {
		v.appendNull()
		return
	}
	switch v.ph {
	case physInt:
		if x.Kind() == value.KindInt {
			v.Ints = append(v.Ints, x.Int())
			return
		}
	case physFloat:
		if x.Kind() == value.KindFloat {
			v.Floats = append(v.Floats, x.Float())
			return
		}
	case physStr:
		if x.Kind() == value.KindString {
			v.Strs = append(v.Strs, x.Str())
			return
		}
	case physBool:
		if x.Kind() == value.KindBool {
			v.Bools = append(v.Bools, x.Bool())
			return
		}
	case physInterval:
		if x.Kind() == value.KindInterval {
			iv := x.Interval()
			v.IvTs = append(v.IvTs, iv.Ts)
			v.IvTe = append(v.IvTe, iv.Te)
			return
		}
	default:
		v.Any = append(v.Any, x)
		return
	}
	v.demote()
	v.Any = append(v.Any, x)
}

// appendNull appends an ω row: the typed slice grows by one zero element
// (so physical offsets stay aligned) and the bitmap bit is set.
func (v *Vec) appendNull() {
	var i int
	switch v.ph {
	case physInt:
		i = len(v.Ints)
		v.Ints = append(v.Ints, 0)
	case physFloat:
		i = len(v.Floats)
		v.Floats = append(v.Floats, 0)
	case physStr:
		i = len(v.Strs)
		v.Strs = append(v.Strs, "")
	case physBool:
		i = len(v.Bools)
		v.Bools = append(v.Bools, false)
	case physInterval:
		i = len(v.IvTs)
		v.IvTs = append(v.IvTs, 0)
		v.IvTe = append(v.IvTe, 0)
	default:
		i = len(v.Any)
		v.Any = append(v.Any, value.Null)
	}
	v.setNull(i)
}

// demote boxes the existing typed rows into Any and switches the column
// to boxed storage. The validity bitmap is preserved: Value already maps
// ω rows to value.Null regardless of storage.
func (v *Vec) demote() {
	n := v.Len()
	any := make([]value.Value, n)
	for i := 0; i < n; i++ {
		any[i] = v.Value(i)
	}
	v.Ints, v.Floats, v.Strs, v.Bools, v.IvTs, v.IvTe = nil, nil, nil, nil, nil, nil
	v.ph = physAny
	v.Any = any
}

// gather appends src[r] for every r of idx, the zero element for a
// negative r; pad reports whether any r was negative.
func gather[T any](dst, src []T, idx []int32) (_ []T, pad bool) {
	for _, r := range idx {
		if r < 0 {
			var zero T
			dst, pad = append(dst, zero), true
		} else {
			dst = append(dst, src[r])
		}
	}
	return dst, pad
}

// AppendRows appends src's physical rows idx, in that order; a negative
// index appends ω (the null padding of an outer join). Columns in the
// same typed layout copy their storage directly, one loop per column
// instead of one layout switch per cell.
func (v *Vec) AppendRows(src *Vec, idx []int32) {
	if v.ph != src.ph || v.ph == physAny {
		for _, r := range idx {
			if r < 0 {
				v.appendNull()
			} else {
				v.Append(src.Value(int(r)))
			}
		}
		return
	}
	base, pad := v.Len(), false
	switch v.ph {
	case physInt:
		v.Ints, pad = gather(v.Ints, src.Ints, idx)
	case physFloat:
		v.Floats, pad = gather(v.Floats, src.Floats, idx)
	case physStr:
		v.Strs, pad = gather(v.Strs, src.Strs, idx)
	case physBool:
		v.Bools, pad = gather(v.Bools, src.Bools, idx)
	case physInterval:
		v.IvTs, pad = gather(v.IvTs, src.IvTs, idx)
		v.IvTe, _ = gather(v.IvTe, src.IvTe, idx)
	}
	if !pad && len(src.nulls) == 0 {
		return
	}
	for k, r := range idx {
		if r < 0 || src.IsNull(int(r)) {
			v.setNull(base + k)
		}
	}
}

// AppendNulls appends n ω rows.
func (v *Vec) AppendNulls(n int) {
	for ; n > 0; n-- {
		v.appendNull()
	}
}

// appendAll appends every physical row of src (which may be v itself).
func (v *Vec) appendAll(src *Vec) {
	n := src.Len()
	if v.ph != src.ph || v.ph == physAny {
		for i := 0; i < n; i++ {
			v.Append(src.Value(i))
		}
		return
	}
	base := v.Len()
	switch v.ph {
	case physInt:
		v.Ints = append(v.Ints, src.Ints...)
	case physFloat:
		v.Floats = append(v.Floats, src.Floats...)
	case physStr:
		v.Strs = append(v.Strs, src.Strs...)
	case physBool:
		v.Bools = append(v.Bools, src.Bools...)
	case physInterval:
		v.IvTs = append(v.IvTs, src.IvTs...)
		v.IvTe = append(v.IvTe, src.IvTe...)
	}
	if len(src.nulls) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if src.IsNull(i) {
			v.setNull(base + i)
		}
	}
}

// reset truncates the column to zero rows, keeping storage capacity. The
// physical layout snaps back to the declared kind, so a demoted column
// gets a fresh chance at the typed fast path.
func (v *Vec) reset() {
	v.ph = physFor(v.Kind)
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Bools = v.Bools[:0]
	v.IvTs = v.IvTs[:0]
	v.IvTe = v.IvTe[:0]
	v.Any = v.Any[:0]
	// Bitmap words are re-appended (zeroed) on demand; [:0] is enough.
	v.nulls = v.nulls[:0]
	v.nullOff = 0
}

// slice returns a view of rows [lo, hi). Storage is shared with the
// parent (including bitmap words, via nullOff); views must not be
// appended to.
func (v *Vec) slice(lo, hi int) Vec {
	out := Vec{Kind: v.Kind, ph: v.ph, nulls: v.nulls, nullOff: v.nullOff + lo}
	switch v.ph {
	case physInt:
		out.Ints = v.Ints[lo:hi:hi]
	case physFloat:
		out.Floats = v.Floats[lo:hi:hi]
	case physStr:
		out.Strs = v.Strs[lo:hi:hi]
	case physBool:
		out.Bools = v.Bools[lo:hi:hi]
	case physInterval:
		out.IvTs = v.IvTs[lo:hi:hi]
		out.IvTe = v.IvTe[lo:hi:hi]
	default:
		out.Any = v.Any[lo:hi:hi]
	}
	return out
}

// Batch is a columnar batch: one Vec per schema attribute, the two
// valid-time columns, and an optional selection vector.
type Batch struct {
	Schema schema.Schema
	Cols   []Vec
	TS     []int64 // valid-time starts, one per physical row
	TE     []int64 // valid-time ends, one per physical row

	// Sel, when non-nil, holds the logically present physical row
	// indices in strictly ascending order. nil means all rows.
	Sel []int32

	n int // physical row count
}

// New returns an empty appendable batch over s.
func New(s schema.Schema) *Batch {
	b := &Batch{}
	b.ResetSchema(s)
	return b
}

// ResetSchema truncates the batch to zero rows and (re)binds it to s,
// reusing column storage when the arity matches.
func (b *Batch) ResetSchema(s schema.Schema) {
	b.Schema = s
	if len(b.Cols) != s.Len() {
		b.Cols = make([]Vec, s.Len())
		for i := range b.Cols {
			b.Cols[i].init(s.Attrs[i].Type)
		}
	} else {
		for i := range b.Cols {
			b.Cols[i].Kind = s.Attrs[i].Type
			b.Cols[i].reset()
		}
	}
	b.TS = b.TS[:0]
	b.TE = b.TE[:0]
	b.Sel = nil
	b.n = 0
}

// Reset truncates the batch to zero rows, keeping schema and capacity.
func (b *Batch) Reset() {
	for i := range b.Cols {
		b.Cols[i].reset()
	}
	b.TS = b.TS[:0]
	b.TE = b.TE[:0]
	b.Sel = nil
	b.n = 0
}

// Len returns the physical row count.
func (b *Batch) Len() int { return b.n }

// SetLen declares the physical row count; used when column headers are
// assembled by reference (projection) rather than appended.
func (b *Batch) SetLen(n int) { b.n = n }

// NumRows returns the logical row count (selection-aware).
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// RowAt maps logical position i to a physical row index.
func (b *Batch) RowAt(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Interval returns the valid time of physical row i.
func (b *Batch) Interval(i int) interval.Interval {
	return interval.Interval{Ts: b.TS[i], Te: b.TE[i]}
}

// AppendTuple appends a row from its row representation.
func (b *Batch) AppendTuple(t tuple.Tuple) {
	for c := range b.Cols {
		b.Cols[c].Append(t.Vals[c])
	}
	b.TS = append(b.TS, t.T.Ts)
	b.TE = append(b.TE, t.T.Te)
	b.n++
}

// AppendFrom appends physical row `row` of src (same schema) with valid
// time [ts, te); the group-producing operators (adjust, exchange) emit
// rows through this.
func (b *Batch) AppendFrom(src *Batch, row int, ts, te int64) {
	for c := range b.Cols {
		sv := &src.Cols[c]
		dv := &b.Cols[c]
		if sv.IsNull(row) {
			dv.appendNull()
			continue
		}
		if dv.ph == sv.ph {
			switch sv.ph {
			case physInt:
				dv.Ints = append(dv.Ints, sv.Ints[row])
				continue
			case physFloat:
				dv.Floats = append(dv.Floats, sv.Floats[row])
				continue
			case physStr:
				dv.Strs = append(dv.Strs, sv.Strs[row])
				continue
			case physBool:
				dv.Bools = append(dv.Bools, sv.Bools[row])
				continue
			case physInterval:
				dv.IvTs = append(dv.IvTs, sv.IvTs[row])
				dv.IvTe = append(dv.IvTe, sv.IvTe[row])
				continue
			}
		}
		dv.Append(sv.Value(row))
	}
	b.TS = append(b.TS, ts)
	b.TE = append(b.TE, te)
	b.n++
}

// AppendBatch appends all logically present rows of src (same schema),
// column by column: whole storage slices when src has no selection, a
// gather over the selection otherwise.
func (b *Batch) AppendBatch(src *Batch) {
	if src.Sel != nil {
		b.AppendRows(src, src.Sel)
		return
	}
	n := src.n
	for c := range b.Cols {
		b.Cols[c].appendAll(&src.Cols[c])
	}
	b.TS = append(b.TS, src.TS[:n]...)
	b.TE = append(b.TE, src.TE[:n]...)
	b.n += n
}

// AppendRows appends src's physical rows idx (same schema, no negative
// index) with their valid times, column by column.
func (b *Batch) AppendRows(src *Batch, idx []int32) {
	for c := range b.Cols {
		b.Cols[c].AppendRows(&src.Cols[c], idx)
	}
	for _, r := range idx {
		b.TS = append(b.TS, src.TS[r])
		b.TE = append(b.TE, src.TE[r])
	}
	b.n += len(idx)
}

// Reserve makes room for n more rows in every column and the valid-time
// arrays: one allocation each, exact on an empty batch, at least doubling
// on one that already holds storage.
func (b *Batch) Reserve(n int) {
	for c := range b.Cols {
		b.Cols[c].reserve(n)
	}
	b.TS = slices.Grow(b.TS, n)
	b.TE = slices.Grow(b.TE, n)
}

// Cap returns the row capacity Reserve and the appends have built up.
func (b *Batch) Cap() int { return cap(b.TS) }

// FromTuples converts rows into columnar form, reusing dst when non-nil.
func FromTuples(dst *Batch, s schema.Schema, rows []tuple.Tuple) *Batch {
	if dst == nil {
		dst = New(s)
	} else {
		dst.ResetSchema(s)
	}
	for i := range rows {
		dst.AppendTuple(rows[i])
	}
	return dst
}

// SliceInto writes a view of physical rows [lo, hi) into dst. The source
// must have no selection vector; storage is shared, so views are
// read-only except for dst.Sel.
func (b *Batch) SliceInto(dst *Batch, lo, hi int) {
	if b.Sel != nil {
		panic("colbatch: SliceInto over a selection")
	}
	dst.Schema = b.Schema
	dst.Cols = dst.Cols[:0]
	for c := range b.Cols {
		dst.Cols = append(dst.Cols, b.Cols[c].slice(lo, hi))
	}
	dst.TS = b.TS[lo:hi:hi]
	dst.TE = b.TE[lo:hi:hi]
	dst.Sel = nil
	dst.n = hi - lo
}

// Materialize appends the logically present rows to dst as row tuples.
// Each call allocates one fresh value slab shared by the returned
// tuples' Vals slices, so the tuples satisfy the row-side immutability
// contract (safe to retain) while costing one allocation per batch.
func (b *Batch) Materialize(dst []tuple.Tuple) []tuple.Tuple {
	nsel := b.NumRows()
	if nsel == 0 {
		return dst
	}
	w := len(b.Cols)
	var flat []value.Value
	if w > 0 {
		flat = make([]value.Value, nsel*w)
	}
	for k := 0; k < nsel; k++ {
		row := b.RowAt(k)
		var vals []value.Value
		if w > 0 {
			vals = flat[k*w : (k+1)*w : (k+1)*w]
			for c := range b.Cols {
				vals[c] = b.Cols[c].Value(row)
			}
		}
		dst = append(dst, tuple.Tuple{Vals: vals, T: b.Interval(row)})
	}
	return dst
}

// AppendValsKey appends the order-preserving key of physical row `row`'s
// attribute values, byte-identical to tuple.AppendKeyVals on the
// materialized row.
func (b *Batch) AppendValsKey(dst []byte, row int) []byte {
	for c := range b.Cols {
		dst = b.Cols[c].AppendKey(dst, row)
	}
	return dst
}

// AppendRowKey appends the full row key (values, then valid time),
// byte-identical to tuple.AppendKey on the materialized row.
func (b *Batch) AppendRowKey(dst []byte, row int) []byte {
	return value.AppendIntervalKey(b.AppendValsKey(dst, row), b.Interval(row))
}
