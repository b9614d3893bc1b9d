// Package stats implements per-table statistics for the cost-based
// optimizer: per-column row counts, null fractions, distinct-count
// estimates, min/max bounds and equi-depth histograms, plus interval
// statistics for the valid-time column (duration histogram, covering span
// and an overlap profile). ANALYZE computes them from typed keys read in
// place from a relation's column images or tuples, one sort per column;
// the planner consumes them through the estimation helpers below, falling
// back to the classic hard-coded selectivity constants wherever statistics
// are missing. All estimation methods are nil-safe: a nil *Table or
// *Column reports ok=false and the caller keeps its default.
package stats

import (
	"cmp"
	"slices"
	"sort"

	"talign/internal/colbatch"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/value"
)

// HistBuckets is the equi-depth histogram resolution: enough buckets to
// make range selectivities meaningful on skewed data, few enough that a
// Table stays small and cheap to build.
const HistBuckets = 32

// Histogram is an equi-depth histogram over the sorted non-null values of
// one column: Bounds[i], Bounds[i+1] delimit bucket i and every bucket
// holds roughly the same number of values. An empty histogram (no bounds)
// carries no information.
type Histogram struct {
	// Bounds are the bucket boundaries in ascending value order
	// (len = buckets + 1, or 0 when the histogram is empty).
	Bounds []value.Value
}

// Buckets returns the number of buckets (0 for an empty histogram).
func (h Histogram) Buckets() int {
	if len(h.Bounds) < 2 {
		return 0
	}
	return len(h.Bounds) - 1
}

// FracBelow estimates the fraction of the histogram's values that are
// strictly less than v, interpolating linearly inside numeric buckets;
// ok is false when the histogram is empty.
func (h Histogram) FracBelow(v value.Value) (frac float64, ok bool) {
	b := h.Buckets()
	if b == 0 || v.IsNull() {
		return 0, false
	}
	if v.Compare(h.Bounds[0]) <= 0 {
		return 0, true
	}
	if v.Compare(h.Bounds[b]) > 0 {
		return 1, true
	}
	// First boundary >= v; v lies in bucket i-1 = [Bounds[i-1], Bounds[i]].
	i := sort.Search(b+1, func(i int) bool { return h.Bounds[i].Compare(v) >= 0 })
	if i == 0 {
		return 0, true
	}
	within := 0.5 // non-interpolatable kinds: assume the bucket midpoint
	lo, hasLo := h.Bounds[i-1].AsFloat()
	hi, hasHi := h.Bounds[i].AsFloat()
	if x, hasX := v.AsFloat(); hasLo && hasHi && hasX && hi > lo {
		within = (x - lo) / (hi - lo)
		if within < 0 {
			within = 0
		} else if within > 1 {
			within = 1
		}
	}
	return (float64(i-1) + within) / float64(b), true
}

// Column summarizes one attribute's value distribution.
type Column struct {
	// NullFrac is the fraction of rows whose value is ω.
	NullFrac float64
	// Distinct is the number of distinct non-null values (exact: ANALYZE
	// scans the whole relation).
	Distinct float64
	// Min and Max bound the non-null values; both are ω when the column
	// holds no non-null value.
	Min, Max value.Value
	// Hist is the equi-depth histogram over the non-null values.
	Hist Histogram
}

// SelEq estimates the selectivity of column = v; ok is false when the
// receiver is nil (no statistics). A v outside [Min, Max] estimates a
// vanishing (but positive) selectivity so downstream clamping keeps
// cardinalities sane.
func (c *Column) SelEq(v value.Value) (sel float64, ok bool) {
	if c == nil {
		return 0, false
	}
	// The out-of-range test needs only Min/Max, so it also serves
	// zone-derived statistics, which carry no distinct counts.
	if !v.IsNull() && !c.Min.IsNull() &&
		(v.Compare(c.Min) < 0 || v.Compare(c.Max) > 0) {
		return 1e-9, true
	}
	if c.Distinct <= 0 {
		return 0, false
	}
	return (1 - c.NullFrac) / c.Distinct, true
}

// Op enumerates the range-comparison shapes SelRange estimates.
type Op uint8

// The range-comparison shapes: column OP v.
const (
	OpLT Op = iota
	OpLE
	OpGT
	OpGE
)

// SelRange estimates the selectivity of "column OP v" from the histogram;
// ok is false without one.
func (c *Column) SelRange(op Op, v value.Value) (sel float64, ok bool) {
	if c == nil {
		return 0, false
	}
	below, ok := c.Hist.FracBelow(v)
	if !ok {
		return 0, false
	}
	eq, _ := c.SelEq(v)
	notNull := 1 - c.NullFrac
	switch op {
	case OpLT:
		sel = below * notNull
	case OpLE:
		sel = below*notNull + eq
	case OpGT:
		sel = (1-below)*notNull - eq
	case OpGE:
		sel = (1 - below) * notNull
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel, true
}

// EqJoinSel estimates the selectivity of an equi-join between two columns
// with the textbook 1/max(distinct_l, distinct_r); one-sided statistics
// use that side's distinct count alone. ok is false when neither side has
// statistics.
func EqJoinSel(l, r *Column) (sel float64, ok bool) {
	ld, rd := 0.0, 0.0
	if l != nil {
		ld = l.Distinct
	}
	if r != nil {
		rd = r.Distinct
	}
	d := ld
	if rd > d {
		d = rd
	}
	if d <= 0 {
		return 0, false
	}
	return 1 / d, true
}

// IntervalStats summarizes the valid-time column: how long tuples live,
// where, and how much they overlap each other. It feeds the output
// estimates of ALIGN/NORMALIZE group construction and of interval joins.
type IntervalStats struct {
	// Span is the smallest interval covering every tuple (zero when the
	// relation is empty).
	Span interval.Interval
	// AvgDur is the mean tuple duration.
	AvgDur float64
	// DurHist is the equi-depth histogram of tuple durations.
	DurHist Histogram
	// DistinctT is the number of distinct exact (Ts, Te) intervals; it
	// estimates the selectivity of the T-equality key the reduction rules
	// append (r.T = s.T).
	DistinctT float64
	// AvgOverlap is the overlap profile: the average number of OTHER
	// tuples of the same relation whose interval overlaps a tuple's
	// interval.
	AvgOverlap float64
}

// Table is the ANALYZE output for one relation: row count, per-column
// statistics aligned with the schema, and valid-time statistics.
type Table struct {
	// Rows is the relation's cardinality at ANALYZE time.
	Rows int64
	// Cols holds one Column per schema attribute, in schema order. The
	// columns are shared, never copied: a derived table (a projection's, a
	// join's) points at its inputs' columns, and a nil entry means "no
	// statistics" for that position. A Column is immutable once its table
	// is published.
	Cols []*Column
	// T summarizes the valid-time intervals.
	T IntervalStats
}

// Col returns the statistics for column i, or nil when the receiver is
// nil or i is out of range — the planner's "no statistics" marker.
func (t *Table) Col(i int) *Column {
	if t == nil || i < 0 || i >= len(t.Cols) {
		return nil
	}
	return t.Cols[i]
}

// OverlapFrac estimates the probability that a random tuple of l and a
// random tuple of r overlap in valid time, from the covering spans and
// average durations (a uniform-start approximation); ok is false when
// either side lacks interval statistics.
func OverlapFrac(l, r *Table) (frac float64, ok bool) {
	if l == nil || r == nil || l.Rows == 0 || r.Rows == 0 {
		return 0, false
	}
	lo, hi := l.T.Span.Ts, l.T.Span.Te
	if r.T.Span.Ts < lo {
		lo = r.T.Span.Ts
	}
	if r.T.Span.Te > hi {
		hi = r.T.Span.Te
	}
	span := float64(hi - lo)
	if span <= 0 {
		return 0, false
	}
	frac = (l.T.AvgDur + r.T.AvgDur) / span
	if frac > 1 {
		frac = 1
	}
	return frac, true
}

// Analyze computes full statistics for rel in O(m · n log n): per column a
// sort of the non-null values (null fraction, exact distinct count,
// min/max, equi-depth histogram) and for the valid-time column a
// start-ordered sweep counting overlapping pairs. It reads the form the
// relation holds — column images (relation.Parts) or tuples — in place:
// an int, float or string column is sorted as int64, float64 or string
// keys, and only Min/Max and the histogram bounds become value.Values.
func Analyze(rel *relation.Relation) *Table {
	n := rel.Len()
	cols := make([]Column, rel.Schema.Len())
	t := &Table{Rows: int64(n), Cols: make([]*Column, len(cols))}
	for i := range cols {
		cols[i] = analyzeColumn(rel, i)
		t.Cols[i] = &cols[i]
	}
	t.T = analyzeIntervals(rel)
	return t
}

// FromSegments derives coarse table statistics from the zone maps of a
// storage-backed relation's segments, for tables that were never
// ANALYZEd: exact row count, per-column null counts and Min/Max bounds,
// and the covering valid-time span. Distinct counts and histograms stay
// zero — estimators that need them keep reporting "no statistics" —
// but Min/Max alone already lets SelEq recognize out-of-range constants.
// Returns nil when segs is empty.
func FromSegments(segs []relation.Segment) *Table {
	if len(segs) == 0 {
		return nil
	}
	ncols := len(segs[0].Zone.Cols)
	cols := make([]Column, ncols)
	t := &Table{Cols: make([]*Column, ncols)}
	nulls := make([]int64, ncols)
	for i := range cols {
		cols[i] = Column{Min: value.Null, Max: value.Null}
		t.Cols[i] = &cols[i]
	}
	for si, sg := range segs {
		z := &sg.Zone
		t.Rows += int64(z.Rows)
		if si == 0 || int64(z.MinTS) < t.T.Span.Ts {
			t.T.Span.Ts = z.MinTS
		}
		if si == 0 || int64(z.MaxTE) > t.T.Span.Te {
			t.T.Span.Te = z.MaxTE
		}
		for i := 0; i < ncols && i < len(z.Cols); i++ {
			zc := z.Cols[i]
			nulls[i] += int64(zc.Nulls)
			if zc.Min.IsNull() {
				continue
			}
			c := t.Cols[i]
			if c.Min.IsNull() || zc.Min.Compare(c.Min) < 0 {
				c.Min = zc.Min
			}
			if c.Max.IsNull() || zc.Max.Compare(c.Max) > 0 {
				c.Max = zc.Max
			}
		}
	}
	if t.Rows > 0 {
		for i := range t.Cols {
			t.Cols[i].NullFrac = float64(nulls[i]) / float64(t.Rows)
		}
	}
	return t
}

// analyzeColumn computes one column's statistics. An int, float or string
// column that every image stores flat, or every tuple holds in its declared
// kind, is summarized from typed keys; any other (bool, interval, demoted
// or untyped storage, tuples of mixed kinds) from its boxed values.
func analyzeColumn(rel *relation.Relation, col int) Column {
	c, ok := Column{}, false
	switch k := rel.Schema.Attrs[col].Type; k {
	case value.KindInt:
		c, ok = typedColumn(rel, col, k, (*colbatch.Vec).IntsRaw, value.Value.Int, value.NewInt)
	case value.KindFloat:
		c, ok = typedColumn(rel, col, k, (*colbatch.Vec).FloatsRaw, value.Value.Float, value.NewFloat)
	case value.KindString:
		c, ok = typedColumn(rel, col, k, (*colbatch.Vec).StrsRaw, value.Value.Str, value.NewString)
	}
	if ok {
		return c
	}
	vals := make([]value.Value, 0, rel.Len())
	parts := rel.Parts()
	for _, p := range parts {
		for i, vec := 0, &p.Cols[col]; i < p.Len(); i++ {
			if !vec.IsNull(i) {
				vals = append(vals, vec.Value(i))
			}
		}
	}
	if parts == nil {
		for _, tp := range rel.Rows() {
			if v := tp.Vals[col]; !v.IsNull() {
				vals = append(vals, v)
			}
		}
	}
	slices.SortFunc(vals, value.Value.Compare)
	return summarize(vals, rel.Len(), value.Value.Compare, func(v value.Value) value.Value { return v })
}

// typedColumn summarizes column col from keys of type K read in place: raw
// gives an image's flat storage, payload a tuple's value of kind k. ok is
// false when some image or tuple holds the column in another form.
func typedColumn[K cmp.Ordered](rel *relation.Relation, col int, k value.Kind,
	raw func(*colbatch.Vec) ([]K, bool), payload func(value.Value) K, box func(K) value.Value) (Column, bool) {
	keys := make([]K, 0, rel.Len())
	parts := rel.Parts()
	for _, p := range parts {
		vec := &p.Cols[col]
		xs, ok := raw(vec)
		if !ok {
			return Column{}, false
		}
		for i, x := range xs[:p.Len()] {
			if !vec.IsNull(i) {
				keys = append(keys, x)
			}
		}
	}
	if parts == nil {
		for _, tp := range rel.Rows() {
			switch v := tp.Vals[col]; v.Kind() {
			case k:
				keys = append(keys, payload(v))
			case value.KindNull:
			default:
				return Column{}, false
			}
		}
	}
	slices.Sort(keys)
	return summarize(keys, rel.Len(), cmp.Compare[K], box), true
}

// summarize computes the statistics of n rows whose non-null values are
// sorted, in cmpK order: null fraction, exact distinct count, Min/Max and
// the equi-depth histogram. Only the values it keeps are boxed.
func summarize[K any](sorted []K, n int, cmpK func(a, b K) int, box func(K) value.Value) Column {
	c := Column{Min: value.Null, Max: value.Null}
	if n > 0 {
		c.NullFrac = float64(n-len(sorted)) / float64(n)
	}
	if len(sorted) == 0 {
		return c
	}
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if cmpK(sorted[i], sorted[i-1]) != 0 {
			distinct++
		}
	}
	c.Distinct = float64(distinct)
	c.Min, c.Max = box(sorted[0]), box(sorted[len(sorted)-1])
	b := min(HistBuckets, distinct)
	c.Hist.Bounds = make([]value.Value, b+1)
	for i := range c.Hist.Bounds {
		c.Hist.Bounds[i] = box(sorted[i*(len(sorted)-1)/b])
	}
	return c
}

// analyzeIntervals computes the valid-time statistics from one copy of the
// rows' intervals, sorted in (Ts, Te) order, and their durations as int64
// keys.
func analyzeIntervals(rel *relation.Relation) IntervalStats {
	n := rel.Len()
	if n == 0 {
		return IntervalStats{}
	}
	ivs := make([]interval.Interval, 0, n)
	parts := rel.Parts()
	for _, p := range parts {
		for i, ts := range p.TS {
			ivs = append(ivs, interval.Interval{Ts: ts, Te: p.TE[i]})
		}
	}
	if parts == nil {
		for _, tp := range rel.Rows() {
			ivs = append(ivs, tp.T)
		}
	}
	durs := make([]int64, n)
	var durSum float64
	st := IntervalStats{Span: ivs[0]}
	for i, iv := range ivs {
		durs[i] = iv.Te - iv.Ts
		durSum += float64(durs[i])
		st.Span.Ts, st.Span.Te = min(st.Span.Ts, iv.Ts), max(st.Span.Te, iv.Te)
	}
	st.AvgDur = durSum / float64(n)
	slices.Sort(durs)
	st.DurHist = summarize(durs, n, cmp.Compare[int64], value.NewInt).Hist

	// Distinct exact intervals are the runs of equal neighbours.
	slices.SortFunc(ivs, interval.Interval.Compare)
	distinctT := 1
	for k := 1; k < n; k++ {
		if ivs[k] != ivs[k-1] {
			distinctT++
		}
	}
	st.DistinctT = float64(distinctT)

	// Overlap profile: with tuples ordered by Ts, tuple k overlaps every
	// later tuple j whose Ts_j < Te_k, so one binary search per tuple
	// counts all overlapping pairs.
	var pairs float64
	for k, iv := range ivs {
		hi, _ := slices.BinarySearchFunc(ivs, iv.Te, func(x interval.Interval, te int64) int { return cmp.Compare(x.Ts, te) })
		pairs += float64(max(hi-k-1, 0))
	}
	st.AvgOverlap = 2 * pairs / float64(n)
	return st
}
