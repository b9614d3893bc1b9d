// ColFusedAdjust: the one ALIGN/NORMALIZE operator. It fuses the
// group-construction join of Sec. 6.1/6.3 with the plane-sweep adjustment
// of Sec. 6.2 (Fig. 10): the group side accumulates into a columnar store,
// each left row finds its group members through one of four strategies
// (hash, merge, nested loop, interval index), every member is reduced to a
// (P1, P2) span, and the small per-row span buffer is sorted and swept
// immediately — concatenated join rows are never materialized.
//
//	align:     span = [max(l.Ts, r.Ts), min(l.Te, r.Te))   (overlaps only)
//	normalize: span = [p, p] for each of the group row's own Ts and Te,
//	           kept only when strictly inside l's interval
//
// Equi keys match through order-preserving byte encodings (ω keys never
// match). The optional residual θ runs over a reused scratch concatenation
// of the pair, with env.T = the left row's T, and only for pairs that
// passed the temporal and key tests. Output rows are the left row's
// attribute vectors with an adjusted timestamp, in left-input order (or
// equi-key order under GroupMerge); consumers are order-insensitive
// (relations are sets).
//
// The operator assumes the left input is duplicate free (the paper's
// Sec. 3.1 relation invariant): each left row sweeps its own group.
package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/interval"
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

// GroupStrategy selects how ColFusedAdjust finds each left row's group
// members (the physical method of the group-construction join that the
// fused node absorbs).
type GroupStrategy uint8

const (
	// GroupHash builds a hash table over the group side's equi keys and
	// probes it per left row.
	GroupHash GroupStrategy = iota
	// GroupMerge key-sorts both sides by their equi keys and walks the
	// runs in lockstep.
	GroupMerge
	// GroupNestLoop scans the whole group side per left row (the paper's
	// fallback when θ has no equi keys).
	GroupNestLoop
	// GroupInterval uses the sort-by-start interval index over the group
	// side (the Sec. 8 access path; align modes only).
	GroupInterval
)

func (g GroupStrategy) String() string {
	return [...]string{"hash join", "merge join", "nestloop join", "interval-index join"}[g]
}

// span is one (P1, P2) pair fed into the sweep; for normalization P1 = P2
// is the split point.
type span struct{ p1, p2 int64 }

// ColFusedAdjust adjusts left tuples against their group on the right.
type ColFusedAdjust struct {
	batching
	Left, Right ColIterator
	Mode        AdjustMode
	Strategy    GroupStrategy
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
	lown     colbatch.Batch // merge: the left side, unless a borrowed image
	rkeys    [][]byte       // merge, nested loop: encoded group-side equi keys (nil: unmatchable ω key)
	arena    []byte
	keyBuf   []byte
	concat   []value.Value // residual scratch: left values, then right values
	env      expr.Env      // reused eval scratch: avoids a per-row heap Env
	spans    []span
	outB     colbatch.Batch
	lb       *colbatch.Batch // current left batch (merge: the whole left side)
	lpos     int
	leftDone bool

	index chainIndex // hash strategy: equi key → chain of store rows

	// merge and interval strategies: rperm lists store rows in equi-key
	// order (merge, ω-keyed rows dropped, rkeys permuted alongside) or in
	// start order (interval).
	rperm    []int32
	lperm    []int32  // merge: left rows in equi-key order
	lkeys    [][]byte // merge: left keys, parallel to lperm
	rlo, rhi int      // merge: current right-side equi-key run
	starts   []int64  // interval: store.TS in rperm order
	maxDur   int64    // interval: longest group-side interval
}

// NewColFusedAdjust builds the operator; normalize rejects the interval
// strategy.
func NewColFusedAdjust(l, r ColIterator, mode AdjustMode, strategy GroupStrategy, keys []expr.EquiPair, residual expr.Expr) (*ColFusedAdjust, error) {
	if mode == ModeNormalize && strategy == GroupInterval {
		return nil, fmt.Errorf("exec: fused normalize cannot use the interval-index strategy")
	}
	if strategy == GroupInterval && len(keys) > 0 {
		return nil, fmt.Errorf("exec: interval-index strategy requires a keyless θ")
	}
	if (strategy == GroupHash || strategy == GroupMerge) && len(keys) == 0 {
		return nil, fmt.Errorf("exec: %s strategy requires equi keys", strategy)
	}
	f := &ColFusedAdjust{
		Left: l, Right: r,
		Mode: mode, Strategy: strategy,
		Keys: keys, Residual: residual,
		out: l.Schema(),
	}
	lk, rk := equiSides(keys)
	f.lenc, f.renc = newRowExprs(lk), newRowExprs(rk)
	return f, nil
}

// Schema implements ColIterator.
func (f *ColFusedAdjust) Schema() schema.Schema { return f.out }

// Open implements ColIterator: it drains the group side into the columnar
// store, encodes its equi keys once, and builds the strategy's access
// structure (hash chains, key-sorted or start-sorted permutation).
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
	f.lb, f.lpos, f.leftDone = nil, 0, false
	n := f.store.Len()

	if len(f.Keys) > 0 && f.Strategy != GroupHash {
		// ω keys become nil: they can never match, and unmatched group rows
		// never surface — the group join is a left outer join.
		if f.arena, f.rkeys, err = encodeKeys(f.arena[:0], f.rkeys[:0], &f.renc, f.store, true); err != nil {
			return err
		}
	}
	switch f.Strategy {
	case GroupHash:
		if err = f.index.build(&f.renc, f.store); err != nil {
			return err
		}
	case GroupMerge:
		// Materialize the left side too and key-sort a row permutation of
		// each side; NextCol walks the runs in lockstep.
		if f.lb, err = drainColumnar(f.Left, 0, &f.lown); err != nil {
			return err
		}
		if f.arena, f.lkeys, err = encodeKeys(f.arena, f.lkeys[:0], &f.lenc, f.lb, false); err != nil {
			return err
		}
		f.lperm = identityPerm(f.lperm[:0], f.lb.Len())
		tuple.KeySort(f.lperm, f.lkeys)
		f.rperm = f.rperm[:0]
		live := f.rkeys[:0]
		for j, k := range f.rkeys {
			if k != nil {
				f.rperm = append(f.rperm, int32(j))
				live = append(live, k)
			}
		}
		f.rkeys = live
		tuple.KeySort(f.rperm, f.rkeys)
		f.rlo, f.rhi = 0, 0
		reserveOut(&f.outB, min(f.lb.Len(), f.batchCap()), f.batchCap())
	case GroupInterval:
		f.rperm = identityPerm(f.rperm[:0], n)
		ts, te := f.store.TS, f.store.TE
		slices.SortFunc(f.rperm, func(a, b int32) int { return cmp.Compare(ts[a], ts[b]) })
		f.starts, f.maxDur = slices.Grow(f.starts[:0], n), 0
		for _, j := range f.rperm {
			f.starts = append(f.starts, ts[j])
			if d := te[j] - ts[j]; d > f.maxDur {
				f.maxDur = d
			}
		}
	}
	return nil
}

func identityPerm(dst []int32, n int) []int32 {
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// nextLeft advances to the next left row of f.lb: the next equi-key
// ordered row under the merge strategy, else the next selected row of the
// streamed left input. ok=false signals exhaustion.
func (f *ColFusedAdjust) nextLeft() (row int, ok bool, err error) {
	if f.Strategy == GroupMerge {
		if f.lpos >= len(f.lperm) {
			return 0, false, nil
		}
		f.lpos++
		return int(f.lperm[f.lpos-1]), true, nil
	}
	for f.lb == nil || f.lpos >= f.lb.NumRows() {
		b, err := f.Left.NextCol()
		if err != nil || b == nil {
			return 0, false, err
		}
		f.lb, f.lpos = b, 0
		// Every left row comes out at least once: room for the rows in
		// hand is room the output is certain to use.
		reserveOut(&f.outB, min(b.NumRows(), f.batchCap()-f.outB.Len()), f.batchCap())
	}
	f.lpos++
	return f.lb.RowAt(f.lpos - 1), true, nil
}

// NextCol implements ColIterator.
func (f *ColFusedAdjust) NextCol() (*colbatch.Batch, error) {
	f.outB.Reset()
	target := f.batchCap()
	for f.outB.Len() < target && !f.leftDone {
		row, ok, err := f.nextLeft()
		if err != nil {
			return nil, err
		}
		if !ok {
			f.leftDone = true
			break
		}
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

// gather fills f.spans with the group of physical left row `row` under
// the operator's strategy.
func (f *ColFusedAdjust) gather(row int) error {
	f.spans = f.spans[:0]
	lts, lte := f.lb.TS[row], f.lb.TE[row]
	if f.Residual != nil {
		f.concat = boxRow(f.concat[:0], f.lb, row)
	}
	var lk []byte
	switch {
	case f.Strategy == GroupMerge:
		lk = f.lkeys[f.lpos-1]
	case len(f.Keys) > 0:
		kb, hasNull, err := f.lenc.appendKey(f.keyBuf[:0], f.lb, row)
		f.keyBuf = kb
		if err != nil {
			return err
		}
		if hasNull {
			return nil // ω keys never match: empty group, bare sweep
		}
		lk = kb
	}
	switch f.Strategy {
	case GroupHash:
		for j := f.index.first(lk); j != 0; j = f.index.next[j-1] {
			if err := f.addCandidate(int(j-1), lts, lte); err != nil {
				return err
			}
		}
	case GroupMerge:
		// Both sides are sorted by encoded equi keys, so the right-run
		// window only moves forward: position it at the first key >= lk.
		if f.rlo == f.rhi || bytes.Compare(f.rkeys[f.rlo], lk) < 0 {
			lo := f.rhi
			for lo < len(f.rkeys) && bytes.Compare(f.rkeys[lo], lk) < 0 {
				lo++
			}
			hi := lo
			for hi < len(f.rkeys) && bytes.Equal(f.rkeys[hi], lk) {
				hi++
			}
			f.rlo, f.rhi = lo, hi
		}
		if f.rlo < f.rhi && bytes.Equal(f.rkeys[f.rlo], lk) {
			for i := f.rlo; i < f.rhi; i++ {
				if err := f.addCandidate(int(f.rperm[i]), lts, lte); err != nil {
					return err
				}
			}
		}
	case GroupNestLoop:
		// The only strategy that visits every pair: test overlap inline so
		// the call is paid for real group members only (a group row that
		// does not overlap has no endpoint strictly inside either).
		ts, te := f.store.TS, f.store.TE
		for j, n := 0, f.store.Len(); j < n; j++ {
			if ts[j] >= lte || te[j] <= lts {
				continue
			}
			if lk != nil && !bytes.Equal(f.rkeys[j], lk) {
				continue
			}
			if err := f.addCandidate(j, lts, lte); err != nil {
				return err
			}
		}
	case GroupInterval:
		// Overlap candidates satisfy r.Ts < lte and r.Te > lts; since
		// r.Te <= r.Ts + maxDur, every candidate has r.Ts > lts - maxDur.
		// Binary search that bound and scan while r.Ts < lte.
		lo := lts - f.maxDur
		pos := sort.Search(len(f.starts), func(i int) bool { return f.starts[i] > lo })
		for ; pos < len(f.starts) && f.starts[pos] < lte; pos++ {
			if err := f.addCandidate(int(f.rperm[pos]), lts, lte); err != nil {
				return err
			}
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
	f.index.release()
	keepBatch(&f.own)
	keepBatch(&f.lown)
	keepBatch(&f.outB)
	f.rkeys, f.lkeys, f.spans = kept(f.rkeys), kept(f.lkeys), kept(f.spans)
	f.rperm, f.lperm, f.starts = kept(f.rperm), kept(f.lperm), kept(f.starts)
	if cap(f.arena) > keptBytes {
		f.arena = nil
	}
	err1 := f.Left.Close()
	err2 := f.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
