package talign

import (
	"fmt"
	"math"

	"talign/internal/colbatch"
	"talign/internal/value"
)

// rowSource is the transport-side half of a Rows cursor: a pull stream of
// fully-owned rows (safe to retain, unlike executor batches).
type rowSource interface {
	// next returns the next row, or nil at end of stream. Errors are
	// terminal.
	next() ([]value.Value, error)
	// close aborts the stream (idempotent); for remote sources it hangs
	// up the wire stream, for embedded ones it tears the executor down
	// and releases the admission-gate claim.
	close() error
}

// batchRows hands one columnar batch out as fully-owned rows, the shape
// both transports share: the batch's selected rows are unpacked into one
// fresh value arena — row-major, each row its visible values followed by
// the valid-time bounds ts and te — and the rows handed out are slices of
// it. Nothing of the batch (which its producer reuses) is retained, and
// the column kinds come from the batch itself, so NaN/Inf floats, periods
// and ω read the same on both DSN schemes.
type batchRows struct {
	n, pos int           // rows in the current arena, rows handed out
	arena  []value.Value // n rows of len(arena)/n values each
}

// unpack replaces the arena with the selected rows of b.
func (r *batchRows) unpack(b *colbatch.Batch) {
	n, w := b.NumRows(), len(b.Cols)+2
	r.n, r.pos, r.arena = n, 0, make([]value.Value, n*w)
	for c := range b.Cols {
		col := &b.Cols[c]
		for i := 0; i < n; i++ {
			r.arena[i*w+c] = col.Value(b.RowAt(i))
		}
	}
	for i := 0; i < n; i++ {
		row := b.RowAt(i)
		r.arena[i*w+w-2] = value.NewInt(b.TS[row])
		r.arena[i*w+w-1] = value.NewInt(b.TE[row])
	}
}

// next returns the next row of the arena, or nil when it is used up.
func (r *batchRows) next() []value.Value {
	if r.pos >= r.n {
		return nil
	}
	r.pos++
	w := len(r.arena) / r.n
	return r.arena[(r.pos-1)*w : r.pos*w : r.pos*w]
}

// Rows is an incremental result cursor in the style of database/sql: call
// Next until it returns false, Scan inside the loop, then check Err. The
// context given to the originating Query governs the stream — cancelling
// it makes Next return false promptly with Err reporting the
// cancellation, and aborts the execution at the backend. Close is
// idempotent; abandoning a cursor without closing it leaks its
// admission-gate claim until garbage collection, so always Close.
//
// Columns lists the visible attributes followed by the valid-time bounds
// "ts" and "te" (int columns), matching the wire protocol's schema frame.
type Rows struct {
	cols     []string
	types    []string
	plan     string
	cacheHit bool

	src    rowSource
	cur    []value.Value
	err    error
	closed bool
}

// Columns returns the result column names (attributes plus "ts", "te").
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Types returns the column type names, parallel to Columns.
func (r *Rows) Types() []string { return append([]string(nil), r.types...) }

// Plan returns the plan rendering for EXPLAIN / EXPLAIN ANALYZE / ANALYZE
// statements (empty for row-producing statements, which stream rows
// instead).
func (r *Rows) Plan() string { return r.plan }

// CacheHit reports whether the statement's plan came out of the
// backend's plan cache.
func (r *Rows) CacheHit() bool { return r.cacheHit }

// Next advances to the next row, reporting false at the end of the
// stream or on error (check Err afterwards). Rows arrive incrementally:
// the first Next can return before the query has finished producing
// later rows.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil || r.src == nil {
		return false
	}
	row, err := r.src.next()
	if err != nil {
		r.err = err
		r.Close()
		return false
	}
	if row == nil {
		r.Close()
		return false
	}
	r.cur = row
	return true
}

// Values returns the current row's values (valid until the next call to
// Next). The last two are the valid-time bounds ts and te as ints.
func (r *Rows) Values() []value.Value { return r.cur }

// Scan copies the current row into dest, one pointer per column:
// *int64, *int, *float64, *bool, *string and *any are supported, with ω
// (null) only scannable into *any (as nil). Periods scan into *string.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("talign: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("talign: Scan wants %d destination(s), got %d", len(r.cur), len(dest))
	}
	for i, v := range r.cur {
		if err := scanValue(v, dest[i]); err != nil {
			return fmt.Errorf("talign: Scan column %d (%s): %v", i, r.colName(i), err)
		}
	}
	return nil
}

func (r *Rows) colName(i int) string {
	if i < len(r.cols) {
		return r.cols[i]
	}
	return fmt.Sprint(i)
}

// Err returns the error that terminated the stream, if any; context
// cancellation surfaces here.
func (r *Rows) Err() error { return r.err }

// Close aborts the stream and releases backend resources (idempotent).
// Closing early stops the producing pipeline without draining it.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.src == nil {
		return nil
	}
	return r.src.close()
}

// scanValue converts one engine value into a Go destination pointer.
func scanValue(v value.Value, dest any) error {
	if d, ok := dest.(*any); ok {
		*d = goValue(v)
		return nil
	}
	if v.IsNull() {
		return fmt.Errorf("ω (null) needs an *any destination")
	}
	switch d := dest.(type) {
	case *int64:
		switch v.Kind() {
		case value.KindInt:
			*d = v.Int()
			return nil
		case value.KindFloat:
			if f := v.Float(); f == math.Trunc(f) {
				*d = int64(f)
				return nil
			}
		}
	case *int:
		if v.Kind() == value.KindInt {
			*d = int(v.Int())
			return nil
		}
	case *float64:
		switch v.Kind() {
		case value.KindFloat:
			*d = v.Float()
			return nil
		case value.KindInt:
			*d = float64(v.Int())
			return nil
		}
	case *bool:
		if v.Kind() == value.KindBool {
			*d = v.Bool()
			return nil
		}
	case *string:
		*d = v.String()
		return nil
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return fmt.Errorf("cannot scan %s into %T", v.Kind(), dest)
}

// goValue converts an engine value to its natural Go representation.
func goValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.Bool()
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	}
	return v.String()
}
