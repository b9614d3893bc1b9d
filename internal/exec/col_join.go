package exec

import (
	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
)

// JoinType enumerates join flavours. Semi and Anti emit left tuples only.
type JoinType uint8

// The join flavours; outer joins pad the unmatched side with ω.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	SemiJoin
	AntiJoin
)

// String renders the flavour for EXPLAIN labels.
func (j JoinType) String() string {
	return [...]string{"inner", "left outer", "right outer", "full outer", "semi", "anti"}[j]
}

// projectsLeftOnly reports whether the join type outputs only the left row.
func (j JoinType) projectsLeftOnly() bool { return j == SemiJoin || j == AntiJoin }

// ColHashJoin is the equi-join over columnar batches. The right input
// is drained into a columnar store and indexed by its encoded equi keys
// (chainIndex over the shared keyTable); left batches probe it row by row.
// Keys match through their order-preserving byte encodings — equal exactly
// when the values Compare equal: 1 and 1.0, every NaN — and ω keys never
// match (SQL semantics); unmatched rows surface through the outer join
// types. A residual condition and optional timestamp equality filter
// candidate pairs: the residual is expr.EvalBool over an Env positioned on
// the pair in place (the left batch's row, then the store row), with T the
// left row's. With no Keys at all every left row probes the one chain of
// all store rows, which is the nested-loop join of an arbitrary condition:
// the planner builds that for a keyless θ.
//
// A match is only noted as a (left row, store row) index pair; the pairs
// are gathered column-wise into a reused output batch, so no tuple is
// built and no row concatenated. Output rows carry the left row's valid
// time (the right row's for the ω-padded rows of right and full outer
// joins), in left-input order with each row's matches in right-input
// order; unmatched right rows follow, in right-input order.
type ColHashJoin struct {
	batching
	Left, Right ColIterator
	// Keys are pairwise equality conditions: Keys[i].Left is bound against
	// the left schema, Keys[i].Right against the right schema.
	Keys     []expr.EquiPair
	Residual expr.Expr // bound against Concat(left, right); may be nil
	Type     JoinType
	MatchT   bool
	// SizeHint is the planner's estimate of the right input's rows; it
	// presizes the build store when the right input offers no image.
	SizeHint int

	out        schema.Schema
	lenc, renc rowExprs
	store      *colbatch.Batch // the build side: own, or a borrowed image
	own        colbatch.Batch
	index      chainIndex
	matched    []bool // right/full outer: store rows some left row matched
	keyBuf     []byte
	env        expr.Env // the residual's: positioned on the candidate pair
	outB       colbatch.Batch
	// Output rows noted since the last flush: a row of the current left
	// batch and a store row, -1 for an ω-padded side.
	lidx, ridx []int32

	lb       *colbatch.Batch // current left batch
	lpos     int             // next logical row of lb
	row      int             // current probe row (physical, in lb)
	cur      int32           // rest of the probe row's chain: store row + 1
	probing  bool            // row still has chain entries or its pad pending
	hit      bool            // row matched some store row
	drainPos int             // right/full outer: next store row of the pad phase
	draining bool
	done     bool
}

// NewColHashJoin constructs the operator.
func NewColHashJoin(l, r ColIterator, keys []expr.EquiPair, residual expr.Expr, typ JoinType, matchT bool) *ColHashJoin {
	j := &ColHashJoin{Left: l, Right: r, Keys: keys, Residual: residual, Type: typ, MatchT: matchT}
	if typ.projectsLeftOnly() {
		j.out = l.Schema()
	} else {
		j.out = l.Schema().Concat(r.Schema())
	}
	lk, rk := equiSides(keys)
	j.lenc, j.renc = rowExprs{es: lk}, rowExprs{es: rk}
	return j
}

// Schema implements ColIterator.
func (j *ColHashJoin) Schema() schema.Schema { return j.out }

// Open implements ColIterator: it drains and indexes the right input.
func (j *ColHashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	var err error
	if j.store, err = drainColumnar(j.Right, j.SizeHint, &j.own); err != nil {
		return err
	}
	j.lb, j.lpos, j.probing = nil, 0, false
	if err = j.index.build(&j.renc, j.store); err != nil {
		return err
	}
	if j.Type == RightOuterJoin || j.Type == FullOuterJoin {
		j.matched = zeroed(j.matched, j.store.Len())
	}
	j.outB.ResetSchema(j.out)
	j.lidx, j.ridx = j.lidx[:0], j.ridx[:0]
	j.drainPos, j.draining, j.done = 0, false, false
	return nil
}

// full reports whether the output batch, noted rows included, is complete.
func (j *ColHashJoin) full() bool { return j.outB.Len()+len(j.lidx) >= j.batchCap() }

// NextCol implements ColIterator: every batch but the last holds exactly
// the batch size; a probe row whose matches straddle the boundary resumes
// its chain on the next call.
func (j *ColHashJoin) NextCol() (*colbatch.Batch, error) {
	j.outB.Reset()
	for !j.full() && !j.done {
		var err error
		switch {
		case j.draining:
			// Last phase of right and full outer joins: the store rows no
			// left row matched, ω-padded on the left.
			if !j.matched[j.drainPos] {
				j.note(-1, j.drainPos)
			}
			j.drainPos++
			j.done = j.drainPos >= len(j.matched)
		case j.probing:
			err = j.probe()
		default:
			err = j.nextProbe()
		}
		if err != nil {
			return nil, err
		}
	}
	j.flush()
	if j.outB.Len() == 0 {
		return nil, nil
	}
	return &j.outB, nil
}

// nextProbe moves to the next left row and looks its chain up. The noted
// output rows index into the current left batch, so they are flushed
// before the batch is replaced.
func (j *ColHashJoin) nextProbe() error {
	for j.lb == nil || j.lpos >= j.lb.NumRows() {
		j.flush()
		b, err := j.Left.NextCol()
		if err != nil {
			return err
		}
		if b == nil {
			j.leftDone()
			return nil
		}
		j.lb, j.lpos = b, 0
		rows, limit := min(b.NumRows(), j.batchCap()-j.outB.Len()), j.batchCap()
		j.lidx, j.ridx = roomFor(j.lidx, rows, limit), roomFor(j.ridx, rows, limit)
	}
	j.row = j.lb.RowAt(j.lpos)
	j.lpos++
	kb, hasNull, err := j.lenc.appendKey(j.keyBuf[:0], j.lb, j.row)
	j.keyBuf = kb
	if err != nil {
		return err
	}
	j.cur = 0
	if !hasNull { // ω keys never match
		j.cur = j.index.first(kb)
	}
	j.probing, j.hit = true, false
	return nil
}

// leftDone ends the probe phase: right and full outer joins go on to pad
// the store rows no left row matched.
func (j *ColHashJoin) leftDone() {
	j.flush()
	j.draining = len(j.matched) > 0
	j.done = !j.draining
}

// probe walks the rest of the current row's chain, noting output rows
// until the chain ends or the batch fills.
func (j *ColHashJoin) probe() error {
	lts, lte := j.lb.TS[j.row], j.lb.TE[j.row]
	j.env = expr.Env{L: j.lb, LRow: j.row, R: j.store, T: j.lb.Interval(j.row)}
	for j.cur != 0 {
		r := int(j.cur - 1)
		j.cur = j.index.next[r]
		if j.MatchT && (j.store.TS[r] != lts || j.store.TE[r] != lte) {
			continue
		}
		if j.Residual != nil {
			j.env.RRow = r
			ok, err := expr.EvalBool(j.Residual, &j.env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		j.hit = true
		if j.matched != nil {
			j.matched[r] = true
		}
		switch j.Type {
		case SemiJoin:
			j.note(j.row, -1)
			j.probing = false
			return nil
		case AntiJoin:
			j.probing = false // one match disqualifies the row
			return nil
		}
		j.note(j.row, r)
		if j.full() {
			return nil // mid-chain: cur persists
		}
	}
	j.probing = false
	if !j.hit {
		switch j.Type {
		case LeftOuterJoin, FullOuterJoin, AntiJoin:
			j.note(j.row, -1)
		}
	}
	return nil
}

func (j *ColHashJoin) note(l, r int) {
	limit := j.batchCap()
	j.lidx = append(roomFor(j.lidx, 1, limit), int32(l))
	j.ridx = append(roomFor(j.ridx, 1, limit), int32(r))
}

// flush gathers the noted rows into the output batch, column by column.
// One flush never mixes the two phases: left rows are all real (probe
// phase) or all ω (pad phase).
func (j *ColHashJoin) flush() {
	p := len(j.lidx)
	if p == 0 {
		return
	}
	o := &j.outB
	reserveOut(o, p, j.batchCap())
	lw := len(j.Left.Schema().Attrs)
	for c := 0; c < lw; c++ {
		if j.draining {
			o.Cols[c].AppendNulls(p)
		} else {
			o.Cols[c].AppendRows(&j.lb.Cols[c], j.lidx)
		}
	}
	if !j.Type.projectsLeftOnly() {
		for c := range j.store.Cols {
			o.Cols[lw+c].AppendRows(&j.store.Cols[c], j.ridx)
		}
	}
	tsrc, tidx := j.lb, j.lidx
	if j.draining {
		tsrc, tidx = j.store, j.ridx
	}
	for _, r := range tidx {
		o.TS = append(o.TS, tsrc.TS[r])
		o.TE = append(o.TE, tsrc.TE[r])
	}
	o.SetLen(o.Len() + p)
	j.lidx, j.ridx = j.lidx[:0], j.ridx[:0]
}

// Close implements ColIterator.
func (j *ColHashJoin) Close() error {
	j.store, j.lb, j.env = nil, nil, expr.Env{}
	j.index.release()
	keepBatch(&j.own)
	keepBatch(&j.outB)
	j.matched, j.lidx, j.ridx = kept(j.matched), kept(j.lidx), kept(j.ridx)
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
