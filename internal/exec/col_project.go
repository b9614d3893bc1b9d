// ColProject: projection as column pointer shuffling. When every output
// expression is a plain column reference (or the tuple's own TS/TE, which
// project as int columns sharing the time arrays), building the output
// batch is a constant-time header assembly — no values move — unless the
// time policy rewrites T (see retime). A projection that computes (a + b, a
// period from arbitrary expressions) evaluates its expressions with
// expr.Eval on each selected row, read in place, into a batch of its own
// (see compute).
package exec

import (
	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/value"
)

// TPolicy controls what valid time a projection assigns to its outputs.
type TPolicy uint8

const (
	// TKeep propagates the input tuple's T (the default for π).
	TKeep TPolicy = iota
	// TFromExpr computes T from TExpr, which must yield a period value;
	// tuples whose TExpr is ω or empty are dropped (used by the standard-SQL
	// baseline to build intersection timestamps).
	TFromExpr
)

// colProjSrc encodes where output column i comes from: >= 0 is an input
// column index, srcTS/srcTE are the valid-time arrays.
const (
	srcTS = -1
	srcTE = -2
)

// ColProject projects a columnar stream: by reassembling column headers
// when it can, by evaluating its expressions otherwise.
type ColProject struct {
	Input ColIterator
	Out   schema.Schema

	srcs  []int // per output column: input index, srcTS or srcTE
	tfrom bool  // TFromExpr
	tsSrc int   // header shuffle: PERIOD arg sources (column index, srcTS or srcTE)
	teSrc int
	out   colbatch.Batch // header over the input's storage
	own   colbatch.Batch // computed or TFromExpr: the surviving rows, compact
	rows  []int32        // TFromExpr: scratch, the surviving physical rows

	// A projection that computes: the output expressions, then TFromExpr's
	// period; vals is one row's outputs before they are known to survive.
	computed bool
	es       rowExprs
	vals     []value.Value
}

// periodTimeSrcs recognizes the TFromExpr shape the header shuffle can
// retime: PERIOD(a, b) where each argument is an int column or the tuple's
// own TS/TE. Anything else is computed.
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

// NewColProject compiles the projection of exprs (texpr is read under
// TFromExpr only) into out.
func NewColProject(in ColIterator, exprs []expr.Expr, out schema.Schema, tmode TPolicy, texpr expr.Expr) *ColProject {
	p := &ColProject{Input: in, Out: out, tfrom: tmode == TFromExpr}
	shuffle := true
	if p.tfrom {
		p.tsSrc, p.teSrc, shuffle = periodTimeSrcs(texpr)
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
			shuffle = false
		}
	}
	if !shuffle {
		p.computed = true
		if p.tfrom {
			exprs = append(exprs[:len(exprs):len(exprs)], texpr)
		}
		p.es, p.vals = rowExprs{es: exprs}, make([]value.Value, len(out.Attrs))
		return p
	}
	p.srcs = srcs
	p.out.Cols = make([]colbatch.Vec, 0, len(srcs))
	return p
}

// Schema implements ColIterator.
func (p *ColProject) Schema() schema.Schema { return p.Out }

// Open implements ColIterator.
func (p *ColProject) Open() error {
	if p.tfrom || p.computed {
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
	if p.computed {
		return p.compute(b)
	}
	o := p.header(b)
	if p.tfrom {
		return p.retime(b, o), nil
	}
	return o, nil
}

// header assembles the reused output header over b's storage.
func (p *ColProject) header(b *colbatch.Batch) *colbatch.Batch {
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
	return o
}

// image implements imager when the projection only shuffles columns and
// keeps T: its whole output is then a header over the input's image. The
// header is reused (and cleared at Close), so whoever keeps the image past
// the execution must copy it (CollectColumnar).
func (p *ColProject) image() (*colbatch.Batch, error) {
	if p.computed || p.tfrom {
		return nil, nil
	}
	img, err := imageOf(p.Input)
	if img == nil {
		return nil, err
	}
	return p.header(img), nil
}

// retime finishes a TFromExpr projection: the PERIOD recomputed per row,
// with the rows whose PERIOD is ω or empty dropped (the row Project's
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
		ts, ok1 := timeAt(b, p.tsSrc, row)
		te, ok2 := timeAt(b, p.teSrc, row)
		if !ok1 || !ok2 || ts >= te {
			continue
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

// compute evaluates the projection on every selected row of b into the
// owned batch: the output expressions first, then — under TFromExpr — the
// period, whose ω or empty value drops the row. An evaluation error ends
// the stream.
func (p *ColProject) compute(b *colbatch.Batch) (*colbatch.Batch, error) {
	nsel := b.NumRows()
	own := &p.own
	own.Reset()
	reserveOut(own, nsel, b.Len())
	for i := 0; i < nsel; i++ {
		row := b.RowAt(i)
		p.es.at(b, row)
		for c := range p.vals {
			var err error
			if p.vals[c], err = p.es.eval(c); err != nil {
				return nil, err
			}
		}
		t := b.Interval(row)
		if p.tfrom {
			v, err := p.es.eval(len(p.vals))
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Interval().Valid() {
				continue
			}
			t = v.Interval()
		}
		for c, v := range p.vals {
			own.Cols[c].Append(v)
		}
		own.TS, own.TE = append(own.TS, t.Ts), append(own.TE, t.Te)
		own.SetLen(own.Len() + 1)
	}
	return own, nil
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
	dropView(&p.out)
	keepBatch(&p.own)
	p.rows = kept(p.rows)
	return p.Input.Close()
}
