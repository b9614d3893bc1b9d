// Package wire defines talignd's frame-stream protocol — the one
// interchange format of every hop — in its two encodings, the structured
// error object every endpoint returns, and the JSON encoding of engine
// values. The server (internal/server), the distributed layer
// (internal/distsql) and the public streaming client (package talign)
// share these types, so the ends of the protocol cannot drift apart.
//
// A stream response is a sequence of frames:
//
//	schema   columns, types, cache_hit
//	rows     one executor batch              // zero or more
//	status   row_count                       // terminal: success
//
// Statements that render a plan instead of rows (EXPLAIN, EXPLAIN
// ANALYZE, ANALYZE) send a single plan frame before the status frame.
// An error — before the schema frame or mid-stream — terminates the
// sequence with an error frame carrying the structured error object.
// The schema frame always lists the visible attributes followed by the
// valid-time bounds "ts" and "te".
//
// Writer speaks both encodings, which carry the same frames. NDJSON
// (MediaNDJSON), the curl-facing edge of /query/stream, is one JSON
// object per line, rows as arrays of Cell-encoded values (a reader
// decodes it with encoding/json, UseNumber and ValueAs):
//
//	{"frame":"schema","columns":[...],"types":[...],"cache_hit":true}
//	{"frame":"rows","rows":[[...],...]}
//	{"frame":"status","row_count":123}
//
// Batch frames (MediaBatch; see batchframe.go for the byte layout) are
// versioned, checksummed, length-prefixed binary frames whose rows
// payload is a colbatch.Batch in the column-region layout segment files
// use: typed regions, validity bitmaps and TS/TE arrays that decode by
// aliasing, with each column's kind carried in the frame so NaN/±Inf,
// periods, ω and untyped all-ω columns round-trip without type hints;
// Decoder reads them. They are spoken on frame connections (GET /frames
// upgraded to FrameProtocol), which carry requests too — a query or
// prepare frame, answered by the stream above or by one prepared frame;
// on a worker also the stage, unstage and analyze frames a coordinator
// sends, answered by a status frame. Frame connections are the one
// transport of both hops: Pool is their client, used by the Go client
// (talignd:// DSNs) and by a coordinator talking to its workers.
package wire

import (
	"encoding/json"
	"fmt"
	"math"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/sqlish"
	"talign/internal/value"
)

// Frame kinds.
const (
	// FrameSchema opens a row-producing response with columns and types.
	FrameSchema = "schema"
	// FrameRows carries one executor batch of rows.
	FrameRows = "rows"
	// FramePlan carries an EXPLAIN/ANALYZE plan rendering.
	FramePlan = "plan"
	// FrameStatus terminates a successful response with the row count.
	FrameStatus = "status"
	// FrameError terminates a failed response with the structured error.
	FrameError = "error"
	// FrameQuery asks a frame connection to run a statement.
	FrameQuery = "query"
	// FramePrepare asks a frame connection to prepare a named statement.
	FramePrepare = "prepare"
	// FramePrepared answers a prepare frame with its parameters and schema.
	FramePrepared = "prepared"
	// FrameStage asks a worker to register (or replace) the relation
	// Table; the relation follows as a schema frame, at least one rows
	// frame — its column kinds type the relation — and a status frame.
	FrameStage = "stage"
	// FrameUnstage asks a worker to drop the relation Table (idempotent).
	FrameUnstage = "unstage"
	// FrameAnalyze asks a worker to refresh the statistics of Table, or of
	// every relation when Table is empty.
	FrameAnalyze = "analyze"
)

// FrameProtocol is the Upgrade token of GET /frames, whose 101 turns the
// connection into a frame connection: batch frames both ways.
const FrameProtocol = "talign-frames/1"

// Frame is one frame of a streaming query response, in either encoding.
type Frame struct {
	// Frame discriminates the kind (one of the Frame* constants).
	Frame string `json:"frame"`
	// Columns and Types describe the result schema (schema frames): the
	// visible attributes followed by the valid-time bounds "ts", "te".
	Columns []string `json:"columns,omitempty"`
	Types   []string `json:"types,omitempty"`
	// CacheHit reports whether the plan came from the plan cache (schema
	// and plan frames).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Rows carries the batch's rows (NDJSON rows frames), each cell
	// encoded by Cell.
	Rows [][]any `json:"rows,omitempty"`
	// Batch carries the batch itself (binary rows frames).
	Batch *colbatch.Batch `json:"-"`
	// Plan carries the rendering of EXPLAIN-style statements.
	Plan string `json:"plan,omitempty"`
	// RowCount is the total rows streamed (status frames; omitted when
	// zero — readers treat absence as 0).
	RowCount int64 `json:"row_count,omitempty"`
	// Error is the structured failure (error frames).
	Error *Error `json:"error,omitempty"`

	// Request fields (binary only): the session, the prepared statement a
	// query runs or a prepare names, the text, $1..$N with their kinds, a
	// batch-size override (0: the server's); NumParams is a prepared's,
	// Table the relation a stage, unstage or analyze frame names. A
	// coordinator's query frame to a worker may name the cut of the
	// statement's plan the worker answers (sqlish.Cut) and map tables to
	// the staged relations the statement reads in their place.
	Session   string            `json:"-"`
	Stmt      string            `json:"-"`
	SQL       string            `json:"-"`
	Params    []value.Value     `json:"-"`
	BatchSize int               `json:"-"`
	NumParams int               `json:"-"`
	Table     string            `json:"-"`
	Cut       sqlish.Cut        `json:"-"`
	Subst     map[string]string `json:"-"`
}

// Error is the structured wire error {code, message, line, col}: the
// pipeline stage code and, for parse errors, the 1-based statement
// position of the offending token.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s: %s (line %d, col %d)", e.Code, e.Message, e.Line, e.Col)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// FromError converts any pipeline error into the wire error object,
// preserving the stage code and position of structured sqlish errors and
// classifying everything else under defaultCode.
func FromError(err error, defaultCode string) *Error {
	se := sqlish.AsError(err, defaultCode)
	return &Error{Code: se.Code, Message: se.Msg, Line: se.Line, Col: se.Col}
}

// Cell converts an engine value to its JSON representation; periods
// render as their "[ts, te)" string form, and non-finite floats as
// strings (JSON has no NaN/Inf).
func Cell(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.Bool()
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprint(f)
		}
		return f
	case value.KindString:
		return v.Str()
	case value.KindInterval:
		return v.Interval().String()
	}
	return v.String()
}

// ValueAs converts a decoded JSON cell back to an engine value under a
// known column type (the schema frame carries the type names), undoing
// the string escapes Cell applies to values JSON cannot carry natively:
// non-finite floats ("NaN", "+Inf", "-Inf") and periods ("[ts, te)").
// Without the type hint those strings would decode as strings and an
// NDJSON reader would diverge from the embedded backend. (The Go client
// reads batch frames, which carry kinds, and never calls this.)
func ValueAs(x any, typ string) (value.Value, error) {
	if n, ok := x.(json.Number); ok && typ == "float" {
		// A whole float (2.0) serializes as the JSON number 2; the type
		// hint keeps it a float instead of collapsing it to an int.
		f, err := n.Float64()
		if err != nil {
			return value.Null, fmt.Errorf("bad number %q", n.String())
		}
		return value.NewFloat(f), nil
	}
	if s, ok := x.(string); ok {
		switch typ {
		case "float":
			switch s {
			case "NaN":
				return value.NewFloat(math.NaN()), nil
			case "+Inf":
				return value.NewFloat(math.Inf(1)), nil
			case "-Inf":
				return value.NewFloat(math.Inf(-1)), nil
			}
		case "interval", "period":
			var ts, te int64
			if _, err := fmt.Sscanf(s, "[%d, %d)", &ts, &te); err == nil {
				return value.NewInterval(interval.New(ts, te)), nil
			}
		}
	}
	return Value(x)
}

// Value converts one decoded JSON cell (or request parameter) to an
// engine value. Numbers must have been decoded with json.Number (use a
// decoder with UseNumber) so integers survive exactly.
func Value(x any) (value.Value, error) {
	switch t := x.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.NewBool(t), nil
	case string:
		return value.NewString(t), nil
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return value.NewInt(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return value.Null, fmt.Errorf("bad number %q", t.String())
		}
		return value.NewFloat(f), nil
	case int64:
		// Cell's own integer output, for in-process round trips that
		// never passed through a JSON decoder.
		return value.NewInt(t), nil
	case float64:
		// A decoder without UseNumber hands numbers over as float64.
		if f := t; f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return value.NewInt(int64(f)), nil
		}
		return value.NewFloat(t), nil
	}
	return value.Null, fmt.Errorf("unsupported JSON type %T (use null, bool, number or string)", x)
}
