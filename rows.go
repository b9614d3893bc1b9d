package talign

import (
	"fmt"
	"math"
	"slices"

	"talign/internal/colbatch"
	"talign/internal/value"
)

// rowSource is the transport-side half of a Rows cursor: a pull stream of
// columnar batches. An embedded cursor pulls a server.RowStream — the
// executor's own, reused batches, which may carry a selection vector — a
// remote one the batches its frame decoder lays over one reused buffer.
type rowSource interface {
	// NextBatch returns the next batch, valid until the following
	// NextBatch or Close, or nil at end of stream. Errors are terminal.
	NextBatch() (*colbatch.Batch, error)
	// Close aborts the stream (idempotent); for remote sources it hangs
	// up the wire stream, for embedded ones it tears the executor down
	// and releases the admission-gate claim.
	Close() error
}

// Rows is an incremental result cursor in the style of database/sql: call
// Next until it returns false, Scan inside the loop, then check Err. The
// context given to the originating Query governs the stream — cancelling
// it makes Next return false promptly with Err reporting the
// cancellation, and aborts the execution at the backend. Close is
// idempotent; abandoning a cursor without closing it leaks its
// admission-gate claim until garbage collection, so always Close.
//
// The cursor reads the backend's current columnar batch in place — the
// executor's on talign://, the decoded rows frame on talignd:// — and
// copies nothing per batch: Scan reads each destination from its column,
// Values fills one row buffer the cursor owns. Outside a row (before the
// first Next, after Next has returned false, after an error or Close)
// there is no batch, so Values returns nil and Scan fails.
//
// Columns lists the visible attributes followed by the valid-time bounds
// "ts" and "te" (int columns), matching the wire protocol's schema frame.
type Rows struct {
	cols     []string
	types    []string
	plan     string
	cacheHit bool

	src    rowSource
	b      *colbatch.Batch // the batch the current row is in; nil outside a row
	pos    int             // the current row's logical position in b
	row    []value.Value   // Values' buffer, allocated once per cursor; empty until Values fills it
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
	r.pos++
	r.row = r.row[:0]
	// A batch is used up before the source is asked for the next one, and
	// never touched afterwards; one whose selection is empty is skipped.
	for r.b == nil || r.pos >= r.b.NumRows() {
		r.b, r.pos = nil, 0
		b, err := r.src.NextBatch()
		if err != nil {
			r.err = err
		}
		if b == nil || err != nil {
			r.Close()
			return false
		}
		r.b = b
	}
	return true
}

// cell reads column i of the current row from its column vector (the
// last two columns are the valid-time bounds).
func (r *Rows) cell(i int) value.Value {
	row := r.b.RowAt(r.pos)
	switch n := len(r.b.Cols); i {
	case n:
		return value.NewInt(r.b.TS[row])
	case n + 1:
		return value.NewInt(r.b.TE[row])
	}
	return r.b.Cols[i].Value(row)
}

// Values returns the current row's values; the last two are the
// valid-time bounds ts and te as ints. Every call returns the same
// backing slice, which the next call to Next overwrites: to keep a row,
// write slices.Clone(rows.Values()). The cells themselves may be kept —
// ints, floats, bools and periods are held by value, and a string cell
// is a Go string in memory of its own (the frame decoder copies every
// string column out of its reused buffer), never a view into the batch.
// Outside a row Values returns nil.
func (r *Rows) Values() []value.Value {
	if r.b == nil {
		return nil
	}
	if len(r.row) == 0 {
		w := len(r.b.Cols) + 2
		r.row = slices.Grow(r.row, w)
		for i := 0; i < w; i++ {
			r.row = append(r.row, r.cell(i))
		}
	}
	return r.row
}

// Scan copies the current row into dest, one pointer per column:
// *int64, *int, *float64, *bool, *string and *any are supported, with ω
// (null) only scannable into *any (as nil). Periods scan into *string.
// Each destination is read straight from its column, and what Scan
// stores is the caller's: it stays intact after the cursor moves on or
// closes.
func (r *Rows) Scan(dest ...any) error {
	if r.b == nil {
		return fmt.Errorf("talign: Scan called without a successful Next")
	}
	if w := len(r.b.Cols) + 2; len(dest) != w {
		return fmt.Errorf("talign: Scan wants %d destination(s), got %d", w, len(dest))
	}
	for i, d := range dest {
		if err := scanValue(r.cell(i), d); err != nil {
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
	r.closed, r.b = true, nil
	if r.src == nil {
		return nil
	}
	return r.src.Close()
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
		if x, ok := integral(v); ok {
			*d = x
			return nil
		}
	case *int:
		if x, ok := integral(v); ok && int64(int(x)) == x {
			*d = int(x)
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

// integral reads v as an int64: an int, or a float holding a whole number
// inside the int64 range. Both bounds are exact float64s — -2⁶³ is
// math.MinInt64, +2⁶³ one past math.MaxInt64 — and NaN and ±Inf fail, so
// the conversion is never the implementation-defined one.
func integral(v value.Value) (int64, bool) {
	switch v.Kind() {
	case value.KindInt:
		return v.Int(), true
	case value.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return int64(f), true
		}
	}
	return 0, false
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
