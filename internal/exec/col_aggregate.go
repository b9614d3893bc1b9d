package exec

import (
	"fmt"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// The aggregate functions: COUNT(*) counts rows, the rest apply to one
// argument expression with ω-skipping SQL semantics.
const (
	AggCountStar AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the SQL spelling of the function.
func (f AggFunc) String() string {
	return [...]string{"COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX"}[f]
}

// AggSpec is one aggregate column: a function over an argument expression
// (nil for COUNT(*)). ω inputs are skipped, as in SQL.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	Name string
}

// resultType returns the aggregate's output kind.
func (a AggSpec) resultType() value.Kind {
	switch a.Func {
	case AggCountStar, AggCount:
		return value.KindInt
	case AggAvg:
		return value.KindFloat
	case AggSum:
		if a.Arg != nil && a.Arg.Type() == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	default:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return value.KindNull
	}
}

// AggregateSchema is the output schema of an aggregation: the group
// columns under names, then one column per aggregate.
func AggregateSchema(groupBy []expr.Expr, names []string, aggs []AggSpec) (schema.Schema, error) {
	if len(groupBy) != len(names) {
		return schema.Schema{}, fmt.Errorf("exec: %d group names for %d group exprs", len(names), len(groupBy))
	}
	attrs := make([]schema.Attr, 0, len(groupBy)+len(aggs))
	for i, e := range groupBy {
		attrs = append(attrs, schema.Attr{Name: names[i], Type: e.Type()})
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = a.Func.String()
		}
		attrs = append(attrs, schema.Attr{Name: name, Type: a.resultType()})
	}
	return schema.Schema{Attrs: attrs}, nil
}

// accumulators holds one aggregate's running state for every group in
// flat slices indexed by group id; only the slices its function reads are
// ever grown.
type accumulators struct {
	fn    AggFunc
	count []int64       // non-ω inputs (rows, for COUNT(*))
	sumI  []int64       // SUM/AVG: exact integer sum while no float was seen
	sumF  []float64     // SUM/AVG: float sum of every input
	sawF  []bool        // SUM/AVG: some input was a float
	best  []value.Value // MIN/MAX: ω until the first input
}

// extend adds one zeroed element to s; a full s is regrown with room for
// `room` more.
func extend[T any](s []T, room int) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, len(s)+room), s...)
	}
	var zero T // the storage may be a previous execution's
	return append(s, zero)
}

// reset empties the state under the retention rule.
func (a *accumulators) reset() {
	a.count, a.sumI, a.sumF = kept(a.count), kept(a.sumI), kept(a.sumF)
	a.sawF, a.best = kept(a.sawF), kept(a.best)
}

// grow adds zeroed state for one more group.
func (a *accumulators) grow(room int) {
	a.count = extend(a.count, room)
	switch a.fn {
	case AggSum, AggAvg:
		a.sumI = extend(a.sumI, room)
		a.sumF = extend(a.sumF, room)
		a.sawF = extend(a.sawF, room)
	case AggMin, AggMax:
		a.best = extend(a.best, room)
	}
}

// add folds one input of group g.
func (a *accumulators) add(g int32, v value.Value) {
	if v.IsNull() {
		return
	}
	a.count[g]++
	switch a.fn {
	case AggSum, AggAvg:
		switch v.Kind() {
		case value.KindInt:
			a.sumI[g] += v.Int()
			a.sumF[g] += float64(v.Int())
		case value.KindFloat:
			a.sawF[g] = true
			a.sumF[g] += v.Float()
		}
	case AggMin:
		if a.best[g].IsNull() || v.Compare(a.best[g]) < 0 {
			a.best[g] = v
		}
	case AggMax:
		if a.best[g].IsNull() || v.Compare(a.best[g]) > 0 {
			a.best[g] = v
		}
	}
}

// result is group g's aggregate value.
func (a *accumulators) result(g int32) value.Value {
	switch a.fn {
	case AggCountStar, AggCount:
		return value.NewInt(a.count[g])
	case AggSum:
		switch {
		case a.count[g] == 0:
			return value.Null
		case a.sawF[g]:
			return value.NewFloat(a.sumF[g])
		}
		return value.NewInt(a.sumI[g])
	case AggAvg:
		if a.count[g] == 0 {
			return value.Null
		}
		return value.NewFloat(a.sumF[g] / float64(a.count[g]))
	}
	return a.best[g] // MIN/MAX: ω when the group had no input
}

// ColHashAggregate groups a columnar input by the GroupBy expressions
// (optionally plus the row's valid time T) and computes the aggregate
// columns. Output schema: group columns, then aggregate columns. When
// GroupByT is set the output rows carry their group's T; otherwise the
// output is nontemporal (zero T). With no group columns and GroupByT
// false, SQL-style global aggregation over an empty input yields a single
// row (COUNT = 0); with group columns an empty input yields no rows.
//
// Groups are keyed in the shared keyTable by the order-preserving byte
// encoding of (group values, group T): one probe per row, and the same
// keys later drive the deterministic output order, ascending in the key.
// Each group's values are kept once, columnar, as they appeared on the
// group's first row; accumulators are flat per-aggregate slices; output
// batches gather both by group id.
type ColHashAggregate struct {
	batching
	Input    ColIterator
	GroupBy  []expr.Expr
	GroupByT bool
	Aggs     []AggSpec

	out    schema.Schema
	exprs  rowExprs       // group expressions, then the aggregates' arguments
	argAt  []int          // per aggregate: its argument's index in exprs, -1 for COUNT(*)
	table  *keyTable      // group key → group id
	groups colbatch.Batch // group columns and T, one row per group id
	accs   []accumulators
	order  []int32 // group ids in output order
	gids   []int32 // scratch: the group of every row of the current batch
	keyVal []value.Value
	keyBuf []byte
	outB   colbatch.Batch
	pos    int
}

// NewColHashAggregate builds the operator; names must parallel groupBy.
func NewColHashAggregate(input ColIterator, groupBy []expr.Expr, names []string, groupByT bool, aggs []AggSpec) (*ColHashAggregate, error) {
	out, err := AggregateSchema(groupBy, names, aggs)
	if err != nil {
		return nil, err
	}
	h := &ColHashAggregate{Input: input, GroupBy: groupBy, GroupByT: groupByT, Aggs: aggs, out: out}
	h.accs, h.keyVal = make([]accumulators, len(aggs)), make([]value.Value, len(groupBy))
	es := append([]expr.Expr(nil), groupBy...)
	for _, a := range aggs {
		if a.Func == AggCountStar {
			h.argAt = append(h.argAt, -1)
			continue
		}
		h.argAt = append(h.argAt, len(es))
		es = append(es, a.Arg)
	}
	h.exprs = rowExprs{es: es}
	return h, nil
}

// Schema implements ColIterator.
func (h *ColHashAggregate) Schema() schema.Schema { return h.out }

// Open implements ColIterator: it consumes the whole input.
func (h *ColHashAggregate) Open() error {
	if err := h.Input.Open(); err != nil {
		return err
	}
	h.table = h.table.reset(0)
	h.groups.ResetSchema(schema.Schema{Attrs: h.out.Attrs[:len(h.GroupBy)]})
	for i := range h.accs {
		h.accs[i].fn = h.Aggs[i].Func
		h.accs[i].reset()
	}
	for {
		b, err := h.Input.NextCol()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := h.consume(b); err != nil {
			return err
		}
	}
	if h.table.len() == 0 && len(h.GroupBy) == 0 && !h.GroupByT {
		// Global aggregation over empty input: the one group every row
		// would have joined, with all-default accumulators.
		h.keyBuf = value.AppendIntervalKey(h.keyBuf[:0], interval.Interval{})
		h.table.insert(h.keyBuf)
		h.newGroup(interval.Interval{}, 1)
	}
	// Deterministic output order: the byte keys encode exactly (group
	// values, T), so their bytewise order is the canonical group order.
	h.order = h.table.sortedIDs(h.order)
	h.outB.ResetSchema(h.out)
	h.pos = 0
	return nil
}

// consume folds one input batch: first every selected row's group id,
// then one pass per aggregate over the batch.
func (h *ColHashAggregate) consume(b *colbatch.Batch) error {
	nsel := b.NumRows()
	h.gids = roomFor(h.gids[:0], nsel, h.batchCap())[:nsel]
	for i := 0; i < nsel; i++ {
		row := b.RowAt(i)
		h.exprs.at(b, row)
		kb := h.keyBuf[:0]
		for k := range h.GroupBy {
			v, err := h.exprs.eval(k)
			if err != nil {
				return err
			}
			h.keyVal[k] = v
			kb = v.AppendKey(kb)
		}
		var gt interval.Interval
		if h.GroupByT {
			gt = b.Interval(row)
		}
		kb = value.AppendIntervalKey(kb, gt)
		h.keyBuf = kb
		g, added := h.table.insert(kb)
		if added {
			h.newGroup(gt, nsel-i)
		}
		h.gids[i] = g
	}
	for a := range h.accs {
		acc, at := &h.accs[a], h.argAt[a]
		if at < 0 {
			for _, g := range h.gids {
				acc.count[g]++
			}
			continue
		}
		for i, g := range h.gids {
			h.exprs.at(b, b.RowAt(i))
			v, err := h.exprs.eval(at)
			if err != nil {
				return err
			}
			acc.add(g, v)
		}
	}
	return nil
}

// newGroup appends a group with the values in h.keyVal and zeroed
// accumulators. ahead is how many groups the rows in hand can still open:
// storage that is full grows for all of them at once, and at least
// doubles.
func (h *ColHashAggregate) newGroup(gt interval.Interval, ahead int) {
	n := h.groups.Len()
	room := max(ahead, n)
	if h.groups.Cap() == n {
		h.groups.Reserve(room)
	}
	h.groups.AppendTuple(tuple.Tuple{Vals: h.keyVal, T: gt})
	for i := range h.accs {
		h.accs[i].grow(room)
	}
}

// NextCol implements ColIterator.
func (h *ColHashAggregate) NextCol() (*colbatch.Batch, error) {
	if h.pos >= len(h.order) {
		return nil, nil
	}
	ids := h.order[h.pos:min(h.pos+h.batchCap(), len(h.order))]
	h.pos += len(ids)
	o := &h.outB
	o.Reset()
	reserveOut(o, len(ids), h.batchCap())
	nk := len(h.GroupBy)
	for c := 0; c < nk; c++ {
		o.Cols[c].AppendRows(&h.groups.Cols[c], ids)
	}
	for a := range h.accs {
		col := &o.Cols[nk+a]
		for _, g := range ids {
			col.Append(h.accs[a].result(g))
		}
	}
	for _, g := range ids {
		o.TS = append(o.TS, h.groups.TS[g])
		o.TE = append(o.TE, h.groups.TE[g])
	}
	o.SetLen(len(ids))
	return o, nil
}

// Close implements ColIterator.
func (h *ColHashAggregate) Close() error {
	h.table, h.order, h.gids = h.table.small(), kept(h.order), kept(h.gids)
	for i := range h.accs {
		h.accs[i].reset()
	}
	keepBatch(&h.groups)
	keepBatch(&h.outB)
	return h.Input.Close()
}
