// ColProject: vectorized projection as column pointer shuffling. When
// every output expression is a plain column reference (or the tuple's own
// TS/TE, which project as int columns sharing the time arrays), building
// the output batch is a constant-time header assembly — no values move —
// unless the time policy rewrites T (see retime). Expression-computing
// projections stay on the row side.
package exec

import (
	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/value"
)

// colProjSrc encodes where output column i comes from: >= 0 is an input
// column index, srcTS/srcTE are the valid-time arrays.
const (
	srcTS = -1
	srcTE = -2
)

// ColProject projects a columnar stream by reassembling column headers.
type ColProject struct {
	Input ColIterator
	Out   schema.Schema

	srcs  []int // per output column: input index, srcTS or srcTE
	tzero bool  // TZero: output carries no valid time
	tfrom bool  // TFromExpr with a recognized PERIOD shape
	tsSrc int   // PERIOD arg sources (column index, srcTS or srcTE)
	teSrc int
	out   colbatch.Batch // header over the input's storage
	own   colbatch.Batch // TFromExpr/TZero: the surviving rows, compact
	rows  []int32        // TFromExpr/TZero: scratch, the surviving physical rows
}

// periodTimeSrcs recognizes the TFromExpr shape the columnar projection
// supports: PERIOD(a, b) where each argument is an int column or the
// tuple's own TS/TE. Anything else stays on the row path.
func periodTimeSrcs(texpr expr.Expr) (ts, te int, ok bool) {
	f, okf := texpr.(expr.Func)
	if !okf || f.Name != "PERIOD" || len(f.Args) != 2 {
		return 0, 0, false
	}
	var s [2]int
	for i, a := range f.Args {
		switch n := a.(type) {
		case expr.ColIdx:
			if n.Typ != value.KindInt {
				return 0, 0, false
			}
			s[i] = n.Idx
		case expr.TStart:
			s[i] = srcTS
		case expr.TEnd:
			s[i] = srcTE
		default:
			return 0, 0, false
		}
	}
	return s[0], s[1], true
}

// ColProjectable reports whether a projection with these output
// expressions and time policy can run columnar: every expression a plain
// column/TS/TE reference, and for TFromExpr a PERIOD over int columns or
// TS/TE (texpr is ignored for the other policies).
func ColProjectable(exprs []expr.Expr, tmode TPolicy, texpr expr.Expr) bool {
	switch tmode {
	case TKeep, TZero:
	case TFromExpr:
		if _, _, ok := periodTimeSrcs(texpr); !ok {
			return false
		}
	default:
		return false
	}
	for _, e := range exprs {
		switch e.(type) {
		case expr.ColIdx, expr.TStart, expr.TEnd:
		default:
			return false
		}
	}
	return true
}

// NewColProject compiles the projection; ok=false when an expression is
// not a plain column/TS/TE reference or the time policy needs row-side
// evaluation (a TFromExpr other than the PERIOD shape above).
func NewColProject(in ColIterator, exprs []expr.Expr, out schema.Schema, tmode TPolicy, texpr expr.Expr) (*ColProject, bool) {
	p := &ColProject{Input: in, Out: out}
	switch tmode {
	case TKeep:
	case TZero:
		p.tzero = true
	case TFromExpr:
		ts, te, ok := periodTimeSrcs(texpr)
		if !ok {
			return nil, false
		}
		p.tfrom, p.tsSrc, p.teSrc = true, ts, te
	default:
		return nil, false
	}
	srcs := make([]int, 0, len(exprs))
	for _, e := range exprs {
		switch n := e.(type) {
		case expr.ColIdx:
			srcs = append(srcs, n.Idx)
		case expr.TStart:
			srcs = append(srcs, srcTS)
		case expr.TEnd:
			srcs = append(srcs, srcTE)
		default:
			return nil, false
		}
	}
	p.srcs = srcs
	p.out.Cols = make([]colbatch.Vec, 0, len(srcs))
	return p, true
}

// Schema implements ColIterator.
func (p *ColProject) Schema() schema.Schema { return p.Out }

// Open implements ColIterator.
func (p *ColProject) Open() error {
	if p.tfrom || p.tzero {
		p.own.ResetSchema(p.Out)
	}
	return p.Input.Open()
}

// NextCol implements ColIterator. The output batch shares all storage
// with the input batch; only the header (column list, time arrays,
// selection) is rewritten per call.
func (p *ColProject) NextCol() (*colbatch.Batch, error) {
	b, err := p.Input.NextCol()
	if err != nil || b == nil {
		return nil, err
	}
	o := &p.out
	o.Schema = p.Out
	o.Cols = o.Cols[:0]
	for _, s := range p.srcs {
		switch s {
		case srcTS:
			o.Cols = append(o.Cols, colbatch.IntVec(b.TS))
		case srcTE:
			o.Cols = append(o.Cols, colbatch.IntVec(b.TE))
		default:
			o.Cols = append(o.Cols, b.Cols[s])
		}
	}
	o.TS, o.TE, o.Sel = b.TS, b.TE, b.Sel
	o.SetLen(b.Len())
	if p.tfrom || p.tzero {
		return p.retime(b, o), nil
	}
	return o, nil
}

// retime finishes a projection whose policy rewrites the valid time:
// TZero's zero intervals, or TFromExpr's PERIOD recomputed per row, with
// the rows whose PERIOD is ω or empty dropped (the row Project's
// semantics: PERIOD returns ω when a bound is ω or ts >= te). New valid
// times need arrays of their own, and arrays as long as the physical
// batch — what sharing the input's column storage would take — cost 16 KB
// for the two rows a point filter kept of a 1 000-row batch. So the
// surviving rows of the header batch o are gathered into an owned batch
// instead, and every buffer is sized by the selected count.
func (p *ColProject) retime(b, o *colbatch.Batch) *colbatch.Batch {
	nsel := b.NumRows()
	own := &p.own
	own.Reset()
	reserveOut(own, nsel, b.Len())
	rows := roomFor(p.rows[:0], nsel, b.Len())
	for i := 0; i < nsel; i++ {
		row := b.RowAt(i)
		var ts, te int64
		if p.tfrom {
			var ok1, ok2 bool
			ts, ok1 = timeAt(b, p.tsSrc, row)
			te, ok2 = timeAt(b, p.teSrc, row)
			if !ok1 || !ok2 || ts >= te {
				continue
			}
		}
		rows = append(rows, int32(row))
		own.TS, own.TE = append(own.TS, ts), append(own.TE, te)
	}
	p.rows = rows
	for c := range o.Cols {
		own.Cols[c].AppendRows(&o.Cols[c], rows)
	}
	own.SetLen(len(rows))
	return own
}

// timeAt reads one PERIOD bound of a physical row; ok=false means the
// bound is ω and the row must be dropped.
func timeAt(b *colbatch.Batch, src, row int) (int64, bool) {
	switch src {
	case srcTS:
		return b.TS[row], true
	case srcTE:
		return b.TE[row], true
	}
	vec := &b.Cols[src]
	if vec.IsNull(row) {
		return 0, false
	}
	return vec.Int(row), true
}

// Close implements ColIterator.
func (p *ColProject) Close() error {
	clear(p.out.Cols[:cap(p.out.Cols)]) // a header must not keep the input's storage alive
	p.out.TS, p.out.TE, p.out.Sel = nil, nil, nil
	keepBatch(&p.own)
	p.rows = kept(p.rows)
	return p.Input.Close()
}
