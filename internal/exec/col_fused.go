// ColFusedAdjust: the one ALIGN/NORMALIZE operator. It fuses the
// group-construction join of Sec. 6.1/6.3 with the plane-sweep adjustment
// of Sec. 6.2 (Fig. 10). The group side is indexed in runs, one per
// distinct equi key (one run when θ has none), each in Ts order — once per
// base relation image, else at Open: a left row scans its key's run from
// the first row that can still overlap (Ts > l.Ts − the longest group
// interval) while Ts < l.Te, the Sec. 8 interval index. Every member
// becomes a (P1, P2) span, and the row's small span buffer is sorted and
// swept at once — concatenated join rows are never materialized.
//
//	align:     span = [max(l.Ts, r.Ts), min(l.Te, r.Te))   (overlaps only)
//	normalize: span = [p, p] for each of the group row's own Ts and Te,
//	           kept only when strictly inside l's interval
//
// Equi keys match through order-preserving byte encodings (ω keys never
// match). The optional residual θ is expr.EvalBool over an Env positioned
// on the pair in place (the left batch's row, then the group row), with T
// the left row's, and runs only for pairs that passed the temporal and key
// tests. Output rows are the left row's attribute vectors with an adjusted
// timestamp, in left-input order; consumers are order-insensitive
// (relations are sets).
//
// The operator assumes the left input is duplicate free (the paper's
// Sec. 3.1 relation invariant): each left row sweeps its own group.
package exec

import (
	"bytes"
	"slices"
	"sort"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// AdjustMode selects between the two temporal primitives that share the
// plane-sweep executor function (Fig. 10): temporal alignment (Def. 11) and
// temporal normalization (Def. 9). In the paper's terms this is the
// `isalign` flag of ExecAdjustment.
type AdjustMode uint8

const (
	// ModeAlign produces, per left tuple, each distinct non-empty
	// intersection with a matching group tuple plus the maximal uncovered
	// gaps (temporal aligner, Def. 10).
	ModeAlign AdjustMode = iota
	// ModeNormalize splits each left tuple at every distinct split point
	// strictly inside its interval (temporal splitter, Def. 8).
	ModeNormalize
	// ModeGaps emits only the maximal uncovered sub-intervals of ModeAlign
	// and suppresses the intersections. It implements the paper's Sec. 8
	// future-work customization for the antijoin, whose reduction keeps
	// exactly the gap tuples: the aligned intersections can never survive
	// r ▷_{θ∧r.T=s.T} (sΦθr), so producing them is wasted work.
	ModeGaps
)

func (m AdjustMode) String() string {
	switch m {
	case ModeAlign:
		return "align"
	case ModeGaps:
		return "align-gaps"
	}
	return "normalize"
}

// span is one (P1, P2) pair fed into the sweep; for normalization P1 = P2
// is the split point.
type span struct{ p1, p2 int64 }

// ColFusedAdjust adjusts left tuples against their group on the right.
type ColFusedAdjust struct {
	batching
	Left, Right ColIterator
	Mode        AdjustMode
	// Keys are θ's equi conjuncts: Left bound against the left schema,
	// Right against the group side's schema.
	Keys []expr.EquiPair
	// Residual is the rest of θ, bound against Concat(left, right); nil
	// when θ was fully extracted into Keys.
	Residual expr.Expr

	groupSide
	out      schema.Schema
	lenc     rowExprs // left equi keys
	renc     rowExprs // group-side equi keys
	keyBuf   []byte
	env      expr.Env // the residual's: positioned on the candidate pair
	spans    []span
	outB     colbatch.Batch
	lb       *colbatch.Batch // current left batch
	lpos     int
	leftDone bool
	examined int // group candidates addCandidate tested since Open
}

// groupSide is a group side drained at Open with its index: the one kept
// with the side's image (relation.IndexMemo) when the side hands one over
// and its keys are plain columns, else one built anew — a
// parameter-filtered side can change between executions.
type groupSide struct {
	// SizeHint is the planner's estimate of the side's rows; it presizes
	// the store when the side offers no image.
	SizeHint int
	// Stats, when set, counts executions that built or shared the index.
	Stats *OpStats

	store  *colbatch.Batch // own, or a borrowed image
	own    colbatch.Batch
	idx    *groupIndex // the image's, or ownIdx
	ownIdx groupIndex
	cols   []int // the keys' columns in the image
}

// groupIndex is the interval index: the group rows without an ω key in
// (encoded equi key, Ts) order; run i is perm[runs[i]:runs[i+1]], its key
// prefix + heads[hoff[i]:hoff[i+1]]. keys and arena are build scratch.
type groupIndex struct {
	perm, runs, hoff     []int32
	prefix, heads, arena []byte
	keys                 [][]byte
	maxDur               int64
}

// NewColFusedAdjust builds the operator.
func NewColFusedAdjust(l, r ColIterator, mode AdjustMode, keys []expr.EquiPair, residual expr.Expr) *ColFusedAdjust {
	f := &ColFusedAdjust{
		Left: l, Right: r, Mode: mode,
		Keys: keys, Residual: residual,
		out: l.Schema(),
	}
	lk, rk := equiSides(keys)
	f.lenc, f.renc = rowExprs{es: lk}, rowExprs{es: rk}
	return f
}

// Schema implements ColIterator.
func (f *ColFusedAdjust) Schema() schema.Schema { return f.out }

// Open implements ColIterator.
func (f *ColFusedAdjust) Open() error {
	if err := f.Left.Open(); err != nil {
		return err
	}
	f.outB.ResetSchema(f.out)
	f.lb, f.lpos, f.leftDone, f.examined = nil, 0, false, 0
	return f.groupSide.open(f.Right, &f.renc)
}

// open opens and drains in and finds its index under the keys enc computes.
func (g *groupSide) open(in ColIterator, enc *rowExprs) error {
	if err := in.Open(); err != nil {
		return err
	}
	var err error
	if g.store, err = drainColumnar(in, g.SizeHint, &g.own); err != nil {
		return err
	}
	built := true
	if memo := g.imageMemo(in, enc.es); memo != nil {
		var v any
		v, built, err = memo.Get(g.cols, func() (any, error) {
			x := new(groupIndex) // kept for good: fitted, without its build scratch
			err := x.build(enc, g.store)
			x.runs, x.hoff, x.heads, x.arena, x.keys = slices.Clone(x.runs), slices.Clone(x.hoff), slices.Clone(x.heads), nil, nil
			return x, err
		})
		g.idx, _ = v.(*groupIndex)
	} else {
		g.idx, err = &g.ownIdx, g.ownIdx.build(enc, g.store)
	}
	if st := g.Stats; st != nil && built {
		st.IndexBuilt.Add(1)
	} else if st != nil {
		st.IndexShared.Add(1)
	}
	return err
}

// imageMemo returns the memo of the relation image in handed over
// (through projections and guards) and sets g.cols to the keys' columns
// in it; nil when the side was copied or a key is not a plain column.
func (g *groupSide) imageMemo(in ColIterator, keys []expr.Expr) *relation.IndexMemo {
	g.cols = g.cols[:0]
	for _, k := range keys {
		c, ok := k.(expr.ColIdx)
		if !ok {
			return nil
		}
		g.cols = append(g.cols, c.Idx)
	}
	for g.store != &g.own {
		switch it := in.(type) {
		case *ColScan:
			return it.memo
		case *ColProject:
			for i, c := range g.cols {
				if c >= 0 {
					g.cols[i] = it.srcs[c]
				}
			}
			in = it.Input
		case *ColGuard:
			in = it.Input
		default:
			return nil
		}
	}
	return nil
}

// close drops the side and applies the retention rule to what it owns.
func (g *groupSide) close() {
	g.store, g.idx = nil, nil
	x := &g.ownIdx
	x.perm, x.runs, x.hoff, x.keys = kept(x.perm), kept(x.runs), kept(x.hoff), kept(x.keys)
	if cap(x.heads) > keptBytes || cap(x.arena) > keptBytes {
		x.heads, x.arena = nil, nil
	}
	keepBatch(&g.own)
}

// build indexes every physical row of b under enc, over x's buffers: the
// rows' keys, each followed by its Ts, are key-sorted (radix when of one
// width) together with the permutation.
func (x *groupIndex) build(enc *rowExprs, b *colbatch.Batch) error {
	x.perm, x.keys, x.maxDur, x.arena = slices.Grow(x.perm[:0], b.Len()), slices.Grow(x.keys[:0], b.Len()), 0, x.arena[:0]
	for j := range b.Len() {
		kb, null, err := enc.appendKey(x.arena, b, j)
		if err != nil {
			return err
		}
		if !null { // an ω key is in no run
			kb = value.AppendInt64Key(kb, b.TS[j])
			x.perm, x.keys = append(x.perm, int32(j)), append(x.keys, kb[len(x.arena):len(kb):len(kb)])
			x.maxDur = max(x.maxDur, b.TE[j]-b.TS[j])
		}
		x.arena = kb
	}
	tuple.KeySort(x.perm, x.keys)
	key := func(i int) []byte { return x.keys[i][:len(x.keys[i])-8] }
	x.prefix, x.runs, x.hoff, x.heads = x.prefix[:0], x.runs[:0], x.hoff[:0], x.heads[:0]
	if m := len(x.perm); m > 0 { // the first and last keys' common prefix is everyone's
		first, last := key(0), key(m-1)
		for len(x.prefix) < min(len(first), len(last)) && first[len(x.prefix)] == last[len(x.prefix)] {
			x.prefix = append(x.prefix, first[len(x.prefix)])
		}
	}
	for i := range x.perm {
		if i == 0 || !bytes.Equal(key(i), key(i-1)) {
			x.runs, x.hoff = append(x.runs, int32(i)), append(x.hoff, int32(len(x.heads)))
			x.heads = append(x.heads, key(i)[len(x.prefix):]...)
		}
	}
	x.runs, x.hoff = append(x.runs, int32(len(x.perm))), append(x.hoff, int32(len(x.heads)))
	return nil
}

// run returns key's run, by binary search: byte order is key order.
func (x *groupIndex) run(key []byte) []int32 {
	rest, ok := bytes.CutPrefix(key, x.prefix)
	i, found := sort.Find(len(x.runs)-1, func(i int) int { return bytes.Compare(rest, x.heads[x.hoff[i]:x.hoff[i+1]]) })
	if !ok || !found {
		return nil
	}
	return x.perm[x.runs[i]:x.runs[i+1]]
}

// NextCol implements ColIterator.
func (f *ColFusedAdjust) NextCol() (*colbatch.Batch, error) {
	f.outB.Reset()
	for f.outB.Len() < f.batchCap() && !f.leftDone {
		if f.lb == nil || f.lpos >= f.lb.NumRows() {
			b, err := f.Left.NextCol()
			if err != nil {
				return nil, err
			}
			f.lb, f.lpos, f.leftDone = b, 0, b == nil
			if b != nil {
				// Every left row comes out at least once: room for the rows
				// in hand is room the output is certain to use.
				reserveOut(&f.outB, min(b.NumRows(), f.batchCap()-f.outB.Len()), f.batchCap())
			}
			continue
		}
		row := f.lb.RowAt(f.lpos)
		f.lpos++
		if err := f.gather(row); err != nil {
			return nil, err
		}
		f.sweep(row)
	}
	if f.outB.Len() == 0 {
		return nil, nil
	}
	return &f.outB, nil
}

// gather fills f.spans with the group of physical left row `row`: it scans
// its key's run from the first row that can still overlap, and
// addCandidate applies the temporal predicate to every row it visits.
func (f *ColFusedAdjust) gather(row int) error {
	f.spans = f.spans[:0]
	lts, lte := f.lb.TS[row], f.lb.TE[row]
	f.env = expr.Env{L: f.lb, LRow: row, R: f.store, T: interval.Interval{Ts: lts, Te: lte}}
	kb, null, err := f.lenc.appendKey(f.keyBuf[:0], f.lb, row)
	if f.keyBuf = kb; err != nil || null {
		return err // ω: empty group, bare sweep
	}
	// Overlap candidates satisfy r.Ts < lte and r.Te > lts; since
	// r.Te <= r.Ts + maxDur, every candidate has r.Ts > lts - maxDur.
	run, ts, lo := f.idx.run(kb), f.store.TS, lts-f.idx.maxDur
	i := sort.Search(len(run), func(i int) bool { return ts[run[i]] > lo })
	for ; i < len(run) && ts[run[i]] < lte; i++ {
		if err := f.addCandidate(int(run[i]), lts, lte); err != nil {
			return err
		}
	}
	return nil
}

// addCandidate reduces one (current left row, store row j) pair whose
// equi keys already matched to spans, applying the native temporal
// predicate and then the residual: align keeps a non-empty intersection,
// normalize each of the group row's endpoints strictly inside the left
// row's interval (the sweep skips repeated points).
func (f *ColFusedAdjust) addCandidate(j int, lts, lte int64) error {
	f.examined++
	n := len(f.spans)
	ts, te := f.store.TS[j], f.store.TE[j]
	if f.Mode == ModeNormalize {
		for _, p := range [2]int64{ts, te} {
			if lts < p && p < lte {
				f.spans = append(f.spans, span{p1: p, p2: p})
			}
		}
	} else if p1, p2 := max(ts, lts), min(te, lte); p1 < p2 {
		f.spans = append(f.spans, span{p1: p1, p2: p2})
	}
	if f.Residual == nil || len(f.spans) == n {
		return nil
	}
	f.env.RRow = j
	ok, err := expr.EvalBool(f.Residual, &f.env)
	if err != nil || !ok {
		f.spans = f.spans[:n]
	}
	return err
}

// sweep is the Fig. 10 plane sweep over the gathered spans of one left
// row; emitted segments copy the left row's columns into the output batch.
func (f *ColFusedAdjust) sweep(row int) {
	lts, lte := f.lb.TS[row], f.lb.TE[row]
	slices.SortFunc(f.spans, func(a, b span) int {
		switch {
		case a.p1 < b.p1:
			return -1
		case a.p1 > b.p1:
			return 1
		case a.p2 < b.p2:
			return -1
		case a.p2 > b.p2:
			return 1
		}
		return 0
	})
	emit := func(ts, te int64) {
		if ts < te {
			f.outB.AppendFrom(f.lb, row, ts, te)
		}
	}
	sweep := lts
	if f.Mode == ModeNormalize {
		for _, sp := range f.spans {
			if sp.p1 <= sweep {
				continue // duplicate split point
			}
			emit(sweep, sp.p1)
			sweep = sp.p1
		}
		emit(sweep, lte)
		return
	}
	var lastP1, lastP2 int64
	lastSet := false
	for _, sp := range f.spans {
		// Gap before this intersection (first block of Fig. 10).
		if sweep < sp.p1 {
			emit(sweep, sp.p1)
			sweep = sp.p1
		}
		// The intersection itself, skipping adjacent duplicates (second
		// block); ModeGaps advances the sweep without emitting it.
		if f.Mode != ModeGaps && (!lastSet || sp.p1 != lastP1 || sp.p2 != lastP2) {
			emit(sp.p1, sp.p2)
			lastP1, lastP2, lastSet = sp.p1, sp.p2, true
		}
		if sp.p2 > sweep {
			sweep = sp.p2
		}
	}
	// Trailing gap, or the whole interval when the group was empty — the
	// ω-padded row of the paper's group-construction outer join.
	emit(sweep, lte)
}

// Close implements ColIterator.
func (f *ColFusedAdjust) Close() error {
	f.groupSide.close()
	f.lb, f.env = nil, expr.Env{}
	keepBatch(&f.outB)
	f.spans = kept(f.spans)
	err1 := f.Left.Close()
	err2 := f.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
