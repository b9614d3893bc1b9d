package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// ColSweepAggregate is temporal aggregation B,Tϑ_F(N_B(r; r)) for
// invertible F — COUNT(*), and COUNT or SUM of a column — as one endpoint
// sweep per key run of r's group index (Kline & Snodgrass, ICDE 1995;
// Moon et al., TKDE 2003). It walks a run's starts in Ts order and its
// ends in Te order with running states, and wherever a row is active
// emits (B, F, [p, p′)) for consecutive endpoints p < p′: the active rows
// are exactly the pieces N_B(r; r) cuts there, which GROUP BY B, Ts, Te
// gathers into that one group, so the answer equals the reduction's, SUM
// wrapping like ColHashAggregate's. Rows with an ω key are never split:
// each group of equal (B, Ts, Te) among them, found by sorting just those
// rows, is swept as one more run.
type ColSweepAggregate struct {
	batching
	Input ColIterator
	// Keys are B as input columns; Group names, per output group column,
	// its input column, one of Keys.
	Keys, Group []int
	// Aggs are COUNT(*), or COUNT or SUM of an expr.ColIdx; SUM reads int
	// storage.
	Aggs []AggSpec

	groupSide      // over Input
	out            schema.Schema
	enc            rowExprs
	args           []int   // per aggregate: its argument's input column, -1 for COUNT(*)
	cnt, sum       []int64 // per aggregate: the active rows' non-ω count and sum
	run, pos, epos int     // runs started; the run's next start and next end
	rows, ends     []int32 // the run in Ts order, and in Te order
	cur            int64   // the last endpoint passed
	omega          []int32 // ω-key rows in (B, Ts, Te) order
	okeys          [][]byte
	oarena         []byte
	opos           int
	one            [1]int32
	outB           colbatch.Batch
}

// NewColSweepAggregate builds the operator; out is AggregateSchema over
// the group columns.
func NewColSweepAggregate(in ColIterator, keys, group []int, out schema.Schema, aggs []AggSpec) (*ColSweepAggregate, error) {
	s := &ColSweepAggregate{Input: in, Keys: keys, Group: group, Aggs: aggs, out: out}
	es := make([]expr.Expr, len(keys))
	for i, c := range keys {
		es[i] = expr.ColIdx{Idx: c, Typ: in.Schema().Attrs[c].Type}
	}
	s.enc = rowExprs{es: es}
	for _, a := range aggs {
		c, ok := a.Arg.(expr.ColIdx)
		switch {
		case a.Func == AggCountStar:
			c.Idx = -1
		case !ok || (a.Func != AggCount && a.Func != AggSum):
			return nil, fmt.Errorf("exec: sweep aggregate: %s(%v) is not COUNT or SUM of a column", a.Func, a.Arg)
		}
		s.args = append(s.args, c.Idx)
	}
	s.cnt, s.sum = make([]int64, len(aggs)), make([]int64, len(aggs))
	return s, nil
}

// Schema implements ColIterator.
func (s *ColSweepAggregate) Schema() schema.Schema { return s.out }

// Open implements ColIterator: it finds the input's index and sorts the
// rows with an ω key.
func (s *ColSweepAggregate) Open() error {
	s.outB.ResetSchema(s.out)
	s.run, s.pos, s.epos, s.rows, s.opos = 0, 0, 0, nil, 0
	clear(s.cnt)
	clear(s.sum)
	if err := s.groupSide.open(s.Input, &s.enc); err != nil {
		return err
	}
	for a, c := range s.args {
		if _, ok := s.store.Cols[max(c, 0)].IntsRaw(); s.Aggs[a].Func == AggSum && !ok {
			return fmt.Errorf("exec: sweep aggregate: SUM over %s, which holds non-int values", s.store.Schema.Attrs[c].Name)
		}
	}
	s.omega, s.okeys, s.oarena = s.omega[:0], s.okeys[:0], s.oarena[:0]
	for j := 0; len(s.idx.perm)+len(s.omega) < s.store.Len(); j++ { // until every ω key is found
		kb, null, err := s.enc.appendKey(s.oarena, s.store, j)
		if err != nil {
			return err
		}
		if null {
			kb = value.AppendIntervalKey(kb, s.store.Interval(j))
			s.omega, s.okeys, s.oarena = append(s.omega, int32(j)), append(s.okeys, kb[len(s.oarena):len(kb):len(kb)]), kb
		}
	}
	tuple.KeySort(s.omega, s.okeys)
	return nil
}

// NextCol implements ColIterator.
func (s *ColSweepAggregate) NextCol() (*colbatch.Batch, error) {
	o, st := &s.outB, s.store
	o.Reset()
	reserveOut(o, min(2*st.Len(), s.batchCap()), s.batchCap())
	for o.Len() < s.batchCap() && (s.epos < len(s.rows) || s.nextRun()) {
		p := st.TE[s.ends[s.epos]] // the next endpoint
		if s.pos < len(s.rows) {
			p = min(p, st.TS[s.rows[s.pos]])
		}
		if s.pos > s.epos && s.cur < p {
			s.emit(s.rows[0], s.cur, p)
		}
		for ; s.epos < len(s.ends) && st.TE[s.ends[s.epos]] <= p; s.epos++ {
			s.apply(s.ends[s.epos], -1)
		}
		for ; s.pos < len(s.rows) && st.TS[s.rows[s.pos]] <= p; s.pos++ {
			s.apply(s.rows[s.pos], 1)
		}
		s.cur = p
	}
	if o.Len() == 0 {
		return nil, nil
	}
	return o, nil
}

// nextRun starts the next run: a key's run of the index, then a group of
// equal (B, Ts, Te) among the ω-key rows; false when none is left.
func (s *ColSweepAggregate) nextRun() bool {
	switch x := s.idx; {
	case s.run < len(x.runs)-1:
		s.rows = x.perm[x.runs[s.run]:x.runs[s.run+1]]
		s.run++
	case s.opos < len(s.omega):
		lo, hi := s.opos, s.opos+1
		for hi < len(s.omega) && bytes.Equal(s.okeys[hi], s.okeys[lo]) {
			hi++
		}
		s.rows, s.opos = s.omega[lo:hi], hi
	default:
		return false
	}
	s.pos, s.epos, s.ends = 0, 0, append(s.ends[:0], s.rows...)
	slices.SortFunc(s.ends, func(a, b int32) int { return cmp.Compare(s.store.TE[a], s.store.TE[b]) })
	return true
}

// apply adds (d = 1) or removes (d = -1) input row j from the running
// states; removal restores a wrapped sum exactly.
func (s *ColSweepAggregate) apply(j int32, d int64) {
	for a, c := range s.args {
		if c >= 0 && s.store.Cols[c].IsNull(int(j)) {
			continue
		}
		s.cnt[a] += d
		if s.Aggs[a].Func == AggSum {
			s.sum[a] += d * s.store.Cols[c].Ints[j]
		}
	}
}

// emit appends the group of row j's key over [ts, te) with the states.
func (s *ColSweepAggregate) emit(j int32, ts, te int64) {
	o := &s.outB
	s.one[0] = j
	for i, c := range s.Group {
		o.Cols[i].AppendRows(&s.store.Cols[c], s.one[:])
	}
	for a := range s.Aggs {
		v := value.NewInt(s.cnt[a])
		if s.Aggs[a].Func == AggSum {
			v = value.NewInt(s.sum[a])
			if s.cnt[a] == 0 {
				v = value.Null
			}
		}
		o.Cols[len(s.Group)+a].Append(v)
	}
	o.TS, o.TE = append(o.TS, ts), append(o.TE, te)
	o.SetLen(o.Len() + 1)
}

// Close implements ColIterator.
func (s *ColSweepAggregate) Close() error {
	s.groupSide.close()
	s.rows, s.ends, s.omega, s.okeys = nil, kept(s.ends), kept(s.omega), kept(s.okeys)
	if cap(s.oarena) > keptBytes {
		s.oarena = nil
	}
	keepBatch(&s.outB)
	return s.Input.Close()
}
