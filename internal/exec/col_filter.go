// ColFilter: the filter. It never copies rows — each input batch comes back
// with a (possibly refined) selection vector listing the qualifying physical
// rows. Predicates are compiled once at construction into tri-state row
// closures (Kleene logic over -1/0/1 for ω/false/true) mirroring expr's Eval
// semantics exactly; a sub-predicate whose operands compute (DUR(Ts, Te) >= 5)
// is the closure that Evals it over the boxed row; the single-comparison
// shapes that dominate real filters additionally compile to a branch-light
// batch kernel over the flat int64/float64 column storage (flatKernel).
package exec

import (
	"fmt"
	"math"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/value"
)

// rowPred evaluates a predicate on one physical row: 1 true, 0 false,
// -1 unknown (ω).
type rowPred func(b *colbatch.Batch, row int) int8

// colVal produces one operand value for a physical row.
type colVal func(b *colbatch.Batch, row int) value.Value

// ColFilter filters a columnar stream by writing selection vectors.
type ColFilter struct {
	Input ColIterator
	Pred  expr.Expr

	pred   rowPred
	kernel *flatKernel
	rest   rowExprs // the sub-predicates without a closure of their own (evalPred)
	err    error    // the current batch's first evaluation error
	selBuf []int32
}

// NewColFilter compiles pred over in's schema.
func NewColFilter(in ColIterator, pred expr.Expr) *ColFilter {
	f := &ColFilter{Input: in, Pred: pred, kernel: compileKernel(pred)}
	f.pred = f.compile(pred)
	f.rest = newRowExprs(f.rest.es)
	return f
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
	f.err = nil
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
	evals := len(f.rest.es) > 0
	for i, nsel := 0, b.NumRows(); i < nsel; i++ {
		row := b.RowAt(i)
		if evals {
			f.rest.at(b, row)
		}
		if f.pred(b, row) == 1 {
			out = append(out, int32(row))
		}
	}
	f.selBuf = out
	if f.err != nil {
		return nil, f.err
	}
	b.Sel = out
	return b, nil
}

// Close implements ColIterator.
func (f *ColFilter) Close() error {
	f.selBuf = kept(f.selBuf)
	return f.Input.Close()
}

// compile builds the tri-state closure for a predicate tree: comparisons,
// IS [NOT] NULL and BETWEEN over column/constant/valid-time operands,
// Kleene connectives, NOT and boolean literals each get one of their own,
// anything else evalPred's.
func (f *ColFilter) compile(e expr.Expr) rowPred {
	switch n := e.(type) {
	case expr.Cmp:
		l, lok := compileOperand(n.L)
		r, rok := compileOperand(n.R)
		if !lok || !rok {
			break
		}
		op := n.Op
		return func(b *colbatch.Batch, row int) int8 {
			lv, rv := l(b, row), r(b, row)
			if lv.IsNull() || rv.IsNull() {
				return -1
			}
			return cmpTruth(op, lv.Compare(rv))
		}
	case expr.Logic:
		l, r := f.compile(n.L), f.compile(n.R)
		if n.Op == expr.AndOp {
			return func(b *colbatch.Batch, row int) int8 {
				a := l(b, row)
				if a == 0 {
					return 0
				}
				c := r(b, row)
				if c == 0 {
					return 0
				}
				if a == -1 || c == -1 {
					return -1
				}
				return 1
			}
		}
		return func(b *colbatch.Batch, row int) int8 {
			a := l(b, row)
			if a == 1 {
				return 1
			}
			c := r(b, row)
			if c == 1 {
				return 1
			}
			if a == -1 || c == -1 {
				return -1
			}
			return 0
		}
	case expr.Not:
		x := f.compile(n.X)
		return func(b *colbatch.Batch, row int) int8 {
			switch x(b, row) {
			case 1:
				return 0
			case 0:
				return 1
			}
			return -1
		}
	case expr.IsNull:
		x, ok := compileOperand(n.X)
		if !ok {
			break
		}
		neg := n.Negate
		return func(b *colbatch.Batch, row int) int8 {
			if x(b, row).IsNull() != neg {
				return 1
			}
			return 0
		}
	case expr.Between:
		// Same desugaring as Between.Eval.
		return f.compile(expr.Logic{
			Op: expr.AndOp,
			L:  expr.Cmp{Op: expr.LE, L: n.Lo, R: n.X},
			R:  expr.Cmp{Op: expr.LE, L: n.X, R: n.Hi},
		})
	case expr.Const:
		switch v := n.V; {
		case v.IsNull():
			return func(*colbatch.Batch, int) int8 { return -1 }
		case v.Kind() == value.KindBool && v.Bool():
			return func(*colbatch.Batch, int) int8 { return 1 }
		case v.Kind() == value.KindBool:
			return func(*colbatch.Batch, int) int8 { return 0 }
		}
	}
	return f.evalPred(e)
}

// evalPred is the closure of a sub-predicate with no compiled form: e's
// Eval over the row boxed into a scratch slice (at most once per row,
// however many of these the predicate has). An evaluation error — a function's, or a
// value that is no truth value — counts as false and is kept for NextCol.
func (f *ColFilter) evalPred(e expr.Expr) rowPred {
	i := len(f.rest.es)
	f.rest.es = append(f.rest.es, e)
	return func(*colbatch.Batch, int) int8 {
		v, err := f.rest.eval(i) // NextCol positioned rest on the row

		switch {
		case err != nil:
		case v.IsNull():
			return -1
		case v.Kind() != value.KindBool:
			err = fmt.Errorf("expr: predicate %s evaluated to %s, want bool", e, v.Kind())
		case v.Bool():
			return 1
		}
		if f.err == nil {
			f.err = err
		}
		return 0
	}
}

// compileOperand builds a value accessor for the leaf operand shapes.
func compileOperand(e expr.Expr) (colVal, bool) {
	switch n := e.(type) {
	case expr.Const:
		v := n.V
		return func(*colbatch.Batch, int) value.Value { return v }, true
	case expr.Param:
		if slot := n.Slot; slot != nil { // bound: read the frame per row
			return func(*colbatch.Batch, int) value.Value { return *slot }, true
		}
	case expr.ColIdx:
		idx := n.Idx
		return func(b *colbatch.Batch, row int) value.Value {
			return b.Cols[idx].Value(row)
		}, true
	case expr.TStart:
		return func(b *colbatch.Batch, row int) value.Value {
			return value.NewInt(b.TS[row])
		}, true
	case expr.TEnd:
		return func(b *colbatch.Batch, row int) value.Value {
			return value.NewInt(b.TE[row])
		}, true
	case expr.TPeriod:
		return func(b *colbatch.Batch, row int) value.Value {
			return value.NewInterval(b.Interval(row))
		}, true
	}
	return nil, false
}

// cmpTruth maps a Compare result through a comparison operator, exactly
// as expr.Cmp.Eval does.
func cmpTruth(op expr.CmpOp, cv int) int8 {
	var b bool
	switch op {
	case expr.EQ:
		b = cv == 0
	case expr.NE:
		b = cv != 0
	case expr.LT:
		b = cv < 0
	case expr.LE:
		b = cv <= 0
	case expr.GT:
		b = cv > 0
	case expr.GE:
		b = cv >= 0
	}
	if b {
		return 1
	}
	return 0
}

// flatKernel is the fast path of the single-comparison shapes worth a flat
// loop: <int column> op <int> and <float column> op <float>, in either
// operand order, plus TS/TE against an int. The operand is a constant or a
// bound parameter, so which loop runs — if any: exact cross-kind compare is
// not a flat loop and stays with the row closure — is decided at Open.
type flatKernel struct {
	col     int // column index, srcTS or srcTE
	op      expr.CmpOp
	operand expr.Expr
	v       value.Value // the operand, this execution
}

// compileKernel returns e's flat kernel, nil when the shape doesn't match;
// the row closure still handles it.
func compileKernel(e expr.Expr) *flatKernel {
	c, ok := e.(expr.Cmp)
	if !ok {
		return nil
	}
	if col, ok := kernelCol(c.L); ok && kernelOperand(c.R) {
		return &flatKernel{col: col, op: c.Op, operand: c.R}
	}
	if col, ok := kernelCol(c.R); ok && kernelOperand(c.L) {
		return &flatKernel{col: col, op: flipOp(c.Op), operand: c.L}
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
// no flat loop for this batch and the caller must use the row closure.
func (k *flatKernel) run(b *colbatch.Batch, out []int32) (_ []int32, ok bool) {
	switch kind := k.v.Kind(); {
	case k.col < 0 && kind == value.KindInt:
		ts, c := b.TS, k.v.Int()
		if k.col == srcTE {
			ts = b.TE
		}
		for i := range ts {
			if cmpTruth(k.op, cmpI64(ts[i], c)) == 1 {
				out = append(out, int32(i))
			}
		}
		return out, true
	case k.col >= 0 && kind == value.KindInt:
		vec, c := &b.Cols[k.col], k.v.Int()
		ints, flat := vec.IntsRaw()
		for i := range ints {
			if !vec.IsNull(i) && cmpTruth(k.op, cmpI64(ints[i], c)) == 1 {
				out = append(out, int32(i))
			}
		}
		return out, flat
	case k.col >= 0 && kind == value.KindFloat:
		vec, c := &b.Cols[k.col], k.v.Float()
		fs, flat := vec.FloatsRaw()
		for i := range fs {
			if !vec.IsNull(i) && cmpTruth(k.op, cmpF64(fs[i], c)) == 1 {
				out = append(out, int32(i))
			}
		}
		return out, flat
	}
	return out, false
}

// flipOp mirrors an operator across swapped operands (c op x ≡ x flip(op) c).
func flipOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op // EQ, NE are symmetric
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpF64 is value's total float order (NaN first, NaN == NaN, -0 == 0),
// replicated so kernel results match Value.Compare bit for bit.
func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	}
	return 1
}
