// ColFusedAdjust: the one ALIGN/NORMALIZE operator. It fuses the
// group-construction join of Sec. 6.1/6.3 with the plane-sweep adjustment
// of Sec. 6.2 (Fig. 10). The group side accumulates into a columnar store
// indexed in runs, one per distinct equi key (one run when θ has none),
// each in Ts order: a left row scans its key's run from the first row
// that can still overlap (Ts > l.Ts − the longest group interval) while
// Ts < l.Te, the Sec. 8 interval index. Every member becomes a (P1, P2)
// span, and the row's small span buffer is sorted and swept at once —
// concatenated join rows are never materialized.
//
//	align:     span = [max(l.Ts, r.Ts), min(l.Te, r.Te))   (overlaps only)
//	normalize: span = [p, p] for each of the group row's own Ts and Te,
//	           kept only when strictly inside l's interval
//
// Equi keys match through order-preserving byte encodings (ω keys never
// match). The optional residual θ runs over a reused scratch concatenation
// of the pair, with env.T = the left row's T, and only for pairs that
// passed the temporal and key tests. Output rows are the left row's
// attribute vectors with an adjusted timestamp, in left-input order;
// consumers are order-insensitive (relations are sets).
//
// The operator assumes the left input is duplicate free (the paper's
// Sec. 3.1 relation invariant): each left row sweeps its own group.
package exec

import (
	"cmp"
	"slices"
	"sort"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/schema"
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
	// SizeHint is the planner's estimate of the group side's rows; it
	// presizes the store when the group side offers no image.
	SizeHint int

	out      schema.Schema
	lenc     rowExprs        // left equi keys
	renc     rowExprs        // group-side equi keys
	store    *colbatch.Batch // accumulated group side: own, or a borrowed image
	own      colbatch.Batch
	keyBuf   []byte
	concat   []value.Value // residual scratch: left values, then right values
	env      expr.Env      // reused eval scratch: avoids a per-row heap Env
	spans    []span
	outB     colbatch.Batch
	lb       *colbatch.Batch // current left batch
	lpos     int
	leftDone bool

	// The group index: run<<32 | row for each store row without an ω key,
	// in (run, Ts) order; run i (equi key id i in keys, or every row when
	// θ has none) is byRun[runs[i]:runs[i+1]]. maxDur: the longest interval.
	keys     *keyTable
	byRun    []uint64
	runs     []int32
	maxDur   int64
	examined int // group candidates addCandidate tested since Open
}

// NewColFusedAdjust builds the operator.
func NewColFusedAdjust(l, r ColIterator, mode AdjustMode, keys []expr.EquiPair, residual expr.Expr) *ColFusedAdjust {
	f := &ColFusedAdjust{
		Left: l, Right: r, Mode: mode,
		Keys: keys, Residual: residual,
		out: l.Schema(),
	}
	lk, rk := equiSides(keys)
	f.lenc, f.renc = newRowExprs(lk), newRowExprs(rk)
	return f
}

// Schema implements ColIterator.
func (f *ColFusedAdjust) Schema() schema.Schema { return f.out }

// Open implements ColIterator: it drains the group side into the store and
// indexes it anew, since a parameter-filtered group side can change.
func (f *ColFusedAdjust) Open() error {
	if err := f.Left.Open(); err != nil {
		return err
	}
	if err := f.Right.Open(); err != nil {
		return err
	}
	var err error
	if f.store, err = drainColumnar(f.Right, f.SizeHint, &f.own); err != nil {
		return err
	}
	f.outB.ResetSchema(f.out)
	f.lb, f.lpos, f.leftDone, f.examined = nil, 0, false, 0
	n, ts, te := f.store.Len(), f.store.TS, f.store.TE
	f.byRun, f.maxDur = slices.Grow(f.byRun[:0], n), 0
	if len(f.Keys) > 0 {
		f.keys = f.keys.reset(n)
	}
	nruns := 1 // an empty index still has run 0
	for j := 0; j < n; j++ {
		switch run, err := f.runOf(&f.renc, f.store, j, true); {
		case err != nil:
			return err
		case run >= 0: // a key with an ω component is in no run
			f.byRun = append(f.byRun, uint64(run)<<32|uint64(j))
			f.maxDur, nruns = max(f.maxDur, te[j]-ts[j]), max(nruns, int(run)+1)
		}
	}
	slices.Sort(f.byRun) // by run; no run is empty, so each ends at its last row
	f.runs = zeroed(f.runs, nruns+1)
	for i, x := range f.byRun {
		f.runs[x>>32+1] = int32(i + 1)
	}
	for r := range nruns {
		slices.SortFunc(f.byRun[f.runs[r]:f.runs[r+1]], func(a, b uint64) int { return cmp.Compare(ts[uint32(a)], ts[uint32(b)]) })
	}
	return nil
}

// runOf returns the run of physical row `row` of b under enc: 0 when θ has
// no keys, else its key's id (insert adds new keys), -1 for ω or unknown.
func (f *ColFusedAdjust) runOf(enc *rowExprs, b *colbatch.Batch, row int, insert bool) (int32, error) {
	if len(f.Keys) == 0 {
		return 0, nil
	}
	kb, hasNull, err := enc.appendKey(f.keyBuf[:0], b, row)
	f.keyBuf = kb
	if err != nil || hasNull {
		return -1, err
	}
	if insert {
		id, _ := f.keys.insert(kb)
		return id, nil
	}
	return f.keys.find(kb), nil
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
	if f.Residual != nil {
		f.concat = boxRow(f.concat[:0], f.lb, row)
	}
	id, err := f.runOf(&f.lenc, f.lb, row, false)
	if err != nil || id < 0 {
		return err // empty group, bare sweep
	}
	// Overlap candidates satisfy r.Ts < lte and r.Te > lts; since
	// r.Te <= r.Ts + maxDur, every candidate has r.Ts > lts - maxDur.
	run, ts, lo := f.byRun[f.runs[id]:f.runs[id+1]], f.store.TS, lts-f.maxDur
	i := sort.Search(len(run), func(i int) bool { return ts[uint32(run[i])] > lo })
	for ; i < len(run) && ts[uint32(run[i])] < lte; i++ {
		if err := f.addCandidate(int(uint32(run[i])), lts, lte); err != nil {
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
	f.concat = boxRow(f.concat[:len(f.lb.Cols)], f.store, j)
	f.env = expr.Env{Vals: f.concat, T: interval.Interval{Ts: lts, Te: lte}}
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
	f.store, f.lb = nil, nil
	f.keys = f.keys.small()
	keepBatch(&f.own)
	keepBatch(&f.outB)
	f.spans, f.byRun, f.runs = kept(f.spans), kept(f.byRun), kept(f.runs)
	err1 := f.Left.Close()
	err2 := f.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
