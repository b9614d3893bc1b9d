// ColFilter: the filter. It never copies rows — each input batch comes back
// with a (possibly refined) selection vector listing the qualifying physical
// rows. The predicate is expr.EvalBool over an Env positioned on each
// selected row in place, WHERE semantics (ω and false both drop the row);
// the single-comparison shapes that dominate real filters instead run a
// branch-light batch kernel over the flat int64/float64 column storage
// (flatKernel).
package exec

import (
	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/value"
)

// ColFilter filters a columnar stream by writing selection vectors.
type ColFilter struct {
	Input ColIterator
	Pred  expr.Expr

	kernel *flatKernel
	env    expr.Env // positioned on the row Pred is evaluated on
	selBuf []int32
}

// NewColFilter builds the filter of pred, bound against in's schema.
func NewColFilter(in ColIterator, pred expr.Expr) *ColFilter {
	return &ColFilter{Input: in, Pred: pred, kernel: compileKernel(pred)}
}

// Schema implements ColIterator.
func (f *ColFilter) Schema() schema.Schema { return f.Input.Schema() }

// Open implements ColIterator. The selection buffer is pre-allocated
// here: a nil selection means "all rows", so the empty selection written
// on a zero-match batch must be non-nil. The flat kernel reads its operand
// here: a $N bound to an int now and a string next time changes loops.
func (f *ColFilter) Open() error {
	if f.selBuf == nil {
		f.selBuf = make([]int32, 0, 16)
	}
	if f.kernel != nil {
		f.kernel.v, _ = f.kernel.operand.Eval(nil) // a constant or a bound slot: no env, no error
	}
	return f.Input.Open()
}

// NextCol implements ColIterator. Batches with empty selections are
// passed through (the contract lets drivers skip them); exhaustion stays
// the child's nil; an evaluation error ends the stream.
func (f *ColFilter) NextCol() (*colbatch.Batch, error) {
	b, err := f.Input.NextCol()
	if err != nil || b == nil {
		return nil, err
	}
	out := f.selBuf[:0]
	if f.kernel != nil && b.Sel == nil {
		if res, ok := f.kernel.run(b, out); ok {
			f.selBuf = res
			b.Sel = res
			return b, nil
		}
	}
	f.env.L = b
	for i, nsel := 0, b.NumRows(); i < nsel; i++ {
		row := b.RowAt(i)
		f.env.LRow, f.env.T = row, b.Interval(row)
		ok, err := expr.EvalBool(f.Pred, &f.env)
		if err != nil {
			f.selBuf = out
			return nil, err
		}
		if ok {
			out = append(out, int32(row))
		}
	}
	f.selBuf = out
	b.Sel = out
	return b, nil
}

// Close implements ColIterator.
func (f *ColFilter) Close() error {
	f.selBuf, f.env = kept(f.selBuf), expr.Env{}
	return f.Input.Close()
}

// flatKernel is the fast path of the single-comparison shapes worth a flat
// loop: <int column> op <int> and <float column> op <float>, in either
// operand order, plus TS/TE against an int. The operand is a constant or a
// bound parameter, so which loop runs — if any: exact cross-kind compare is
// not a flat loop and stays with expr.EvalBool — is decided at Open.
type flatKernel struct {
	col     int // column index, srcTS or srcTE
	op      expr.CmpOp
	operand expr.Expr
	v       value.Value // the operand, this execution
}

// compileKernel returns e's flat kernel, nil when the shape doesn't match.
func compileKernel(e expr.Expr) *flatKernel {
	c, ok := e.(expr.Cmp)
	if !ok {
		return nil
	}
	if col, ok := kernelCol(c.L); ok && kernelOperand(c.R) {
		return &flatKernel{col: col, op: c.Op, operand: c.R}
	}
	if col, ok := kernelCol(c.R); ok && kernelOperand(c.L) {
		return &flatKernel{col: col, op: c.Op.Flip(), operand: c.L}
	}
	return nil
}

func kernelCol(e expr.Expr) (int, bool) {
	switch n := e.(type) {
	case expr.ColIdx:
		return n.Idx, true
	case expr.TStart:
		return srcTS, true
	case expr.TEnd:
		return srcTE, true
	}
	return 0, false
}

func kernelOperand(e expr.Expr) bool {
	p, bound := e.(expr.Param)
	_, isConst := e.(expr.Const)
	return isConst || bound && p.Slot != nil
}

// run filters a whole batch, appending qualifying physical rows to out.
// ok=false means the operand's kind or the column's storage (demoted) has
// no flat loop for this batch and the caller must evaluate row by row.
func (k *flatKernel) run(b *colbatch.Batch, out []int32) (_ []int32, ok bool) {
	switch kind := k.v.Kind(); {
	case k.col < 0 && kind == value.KindInt:
		ts, c := b.TS, k.v.Int()
		if k.col == srcTE {
			ts = b.TE
		}
		for i := range ts {
			if k.op.Holds(value.CmpInt64(ts[i], c)) {
				out = append(out, int32(i))
			}
		}
		return out, true
	case k.col >= 0 && kind == value.KindInt:
		vec, c := &b.Cols[k.col], k.v.Int()
		ints, flat := vec.IntsRaw()
		for i := range ints {
			if !vec.IsNull(i) && k.op.Holds(value.CmpInt64(ints[i], c)) {
				out = append(out, int32(i))
			}
		}
		return out, flat
	case k.col >= 0 && kind == value.KindFloat:
		vec, c := &b.Cols[k.col], k.v.Float()
		fs, flat := vec.FloatsRaw()
		for i := range fs {
			if !vec.IsNull(i) && k.op.Holds(value.CmpFloat64(fs[i], c)) {
				out = append(out, int32(i))
			}
		}
		return out, flat
	}
	return out, false
}
