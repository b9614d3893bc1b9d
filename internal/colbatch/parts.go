package colbatch

import (
	"talign/internal/schema"
	"talign/internal/value"
)

// This file exports raw-parts constructors for code that assembles
// batches from storage rather than by appending tuples: the on-disk
// segment decoder aliases memory-mapped column regions directly into Vec
// storage (zero-copy for the int64/float64/TS/TE fast paths). The
// resulting batches are read-only by contract, like SliceInto views.

// VecFromInts wraps int64 storage plus an optional packed validity
// bitmap (bit i set means row i is ω) as an int column.
func VecFromInts(xs []int64, nulls []uint64) Vec {
	return Vec{Kind: value.KindInt, ph: physInt, Ints: xs, nulls: nulls}
}

// VecFromFloats is VecFromInts for float64 storage.
func VecFromFloats(xs []float64, nulls []uint64) Vec {
	return Vec{Kind: value.KindFloat, ph: physFloat, Floats: xs, nulls: nulls}
}

// VecFromStrs is VecFromInts for string storage.
func VecFromStrs(xs []string, nulls []uint64) Vec {
	return Vec{Kind: value.KindString, ph: physStr, Strs: xs, nulls: nulls}
}

// VecFromBools is VecFromInts for bool storage.
func VecFromBools(xs []bool, nulls []uint64) Vec {
	return Vec{Kind: value.KindBool, ph: physBool, Bools: xs, nulls: nulls}
}

// VecFromIntervals wraps parallel start/end storage plus an optional
// validity bitmap as an interval column. len(ts) must equal len(te).
func VecFromIntervals(ts, te []int64, nulls []uint64) Vec {
	if len(ts) != len(te) {
		panic("colbatch: VecFromIntervals length mismatch")
	}
	return Vec{Kind: value.KindInterval, ph: physInterval, IvTs: ts, IvTe: te, nulls: nulls}
}

// VecFromAny wraps boxed storage as a column declared as kind k: the
// storage form of heterogeneous (demoted) and untyped columns. ω rows
// are represented by value.Null elements directly; no bitmap is needed.
func VecFromAny(k value.Kind, xs []value.Value) Vec {
	v := Vec{Kind: k, ph: physAny, Any: xs}
	for i, x := range xs {
		if x.IsNull() {
			v.setNull(i)
		}
	}
	return v
}

// StrsRaw returns the flat string storage, or nil,false when the column
// is not in string layout.
func (v *Vec) StrsRaw() ([]string, bool) {
	if v.ph != physStr {
		return nil, false
	}
	return v.Strs, true
}

// NullBitmap returns the column's packed validity bitmap in canonical
// form (nullOff 0, no bit at or beyond Len), or nil when no row is ω. A
// view shares its parent's bitmap, so the result is freshly allocated
// when the vector is an offset view, or a prefix view whose last word
// also holds bits of the parent's later rows.
func (v *Vec) NullBitmap() []uint64 {
	n := v.Len()
	if v.nullOff == 0 {
		words := v.nulls[:min(len(v.nulls), (n+63)/64)]
		if r := n & 63; len(words)*64 > n && words[len(words)-1]>>r != 0 {
			words = append([]uint64(nil), words...)
			words[len(words)-1] &= 1<<r - 1
		}
		for _, w := range words {
			if w != 0 {
				return words
			}
		}
		return nil
	}
	var out []uint64
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			for len(out) <= i>>6 {
				out = append(out, 0)
			}
			out[i>>6] |= 1 << (i & 63)
		}
	}
	return out
}

// NewFromParts assembles a batch from pre-built columns and valid-time
// arrays. Every column must have physical length len(ts) == len(te).
// The batch shares the given storage and must be treated as read-only.
func NewFromParts(s schema.Schema, cols []Vec, ts, te []int64) *Batch {
	if len(cols) != s.Len() {
		panic("colbatch: NewFromParts column count does not match schema")
	}
	if len(ts) != len(te) {
		panic("colbatch: NewFromParts TS/TE length mismatch")
	}
	for i := range cols {
		if cols[i].Len() != len(ts) {
			panic("colbatch: NewFromParts column length mismatch")
		}
	}
	return &Batch{Schema: s, Cols: cols, TS: ts, TE: te, n: len(ts)}
}
