// Package relation implements temporal relations: finite sets of interval
// timestamped tuples over a schema (Sec. 3.1), together with the timeslice
// operator τ_t, the duplicate-free invariant, and set-level utilities used
// throughout the algebra, the engine and the test oracle.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Relation is a temporal relation: a schema plus its rows, in one of two
// forms fixed at birth. The algebra treats relations as sets; row order
// is an implementation detail (operators that need an order sort
// explicitly).
//
// A row-born relation (New, Builder, a composite literal, exec.Collect)
// owns Tuples and may be appended to, through Append or directly. A
// batch-born one (FromColumnar, FromSegments) arrived as column vectors —
// a CSV file, a stored table, a staged shard, a gathered temp — and holds
// those, read-only, and a row count: its Tuples is nil and stays nil. So
// code handed a relation it did not build reads Rows() or the columns
// (Columnar, Parts), never Tuples; the mutators (Append, SortCanonical,
// Dedup) make a batch-born relation row-born first.
type Relation struct {
	Schema schema.Schema
	Tuples []tuple.Tuple

	colv atomic.Pointer[colImage] // row-born: cached image of Tuples, see Columnar
	born *batchForm               // batch-born: what it was built from; else nil
}

// New returns an empty row-born relation over the given schema.
func New(s schema.Schema) *Relation {
	return &Relation{Schema: s}
}

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.born != nil {
		return r.born.n
	}
	return len(r.Tuples)
}

// Rows returns the relation's tuples: Tuples for a row-born relation, for
// a batch-born one the rows of its images, derived on the first call (from
// any number of goroutines, once) and kept. Shared: do not modify.
func (r *Relation) Rows() []tuple.Tuple {
	if b := r.born; b != nil {
		b.rowsOnce.Do(func() {
			b.rows = make([]tuple.Tuple, 0, b.n)
			for _, img := range b.parts {
				b.rows = img.Materialize(b.rows)
			}
		})
		return b.rows
	}
	return r.Tuples
}

// own makes a batch-born relation row-born ahead of a mutation.
func (r *Relation) own() {
	if r.born != nil {
		r.Tuples, r.born = r.Rows(), nil
	}
}

// Append adds a tuple after checking its arity and value types against the
// schema. ω is accepted for any attribute type.
func (r *Relation) Append(t tuple.Tuple) error {
	if len(t.Vals) != r.Schema.Len() {
		return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t.Vals), r.Schema.Len())
	}
	for i, v := range t.Vals {
		if v.IsNull() {
			continue
		}
		want := r.Schema.Attrs[i].Type
		if v.Kind() == want {
			continue
		}
		if v.Kind().Numeric() && want.Numeric() {
			continue
		}
		return fmt.Errorf("relation: attribute %q expects %s, got %s", r.Schema.Attrs[i].Name, want, v.Kind())
	}
	r.own()
	r.Tuples = append(r.Tuples, t)
	r.invalidateColumnar()
	return nil
}

// MustAppend is Append but panics on error; for literals in tests/examples.
func (r *Relation) MustAppend(t tuple.Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Clone returns a deep, row-born copy; the schema's attribute list is
// copied too, so renaming a clone's attributes cannot alias the original.
func (r *Relation) Clone() *Relation {
	attrs := make([]schema.Attr, len(r.Schema.Attrs))
	copy(attrs, r.Schema.Attrs)
	rows := r.Rows()
	out := &Relation{Schema: schema.Schema{Attrs: attrs}, Tuples: make([]tuple.Tuple, len(rows))}
	for i, t := range rows {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// DuplicateFree verifies the paper's invariant (Sec. 3.1): no two distinct
// tuples are value-equivalent over a common time point. It returns the
// first offending pair if any.
func (r *Relation) DuplicateFree() error {
	rows := r.Rows()
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return rows[idx[a]].Compare(rows[idx[b]]) < 0
	})
	for k := 1; k < len(idx); k++ {
		a, b := rows[idx[k-1]], rows[idx[k]]
		if a.ValsEqual(b) && a.T.Overlaps(b.T) {
			return fmt.Errorf("relation: tuples %v and %v are value-equivalent over common time points", a, b)
		}
	}
	return nil
}

// Timeslice implements τ_t (Sec. 3.1): the nontemporal snapshot at time t.
// The result tuples carry a zero interval; callers that need lineage use
// TimesliceIdx instead.
func (r *Relation) Timeslice(t int64) *Relation {
	out := New(r.Schema)
	for _, tp := range r.Rows() {
		if tp.T.Contains(t) {
			out.Tuples = append(out.Tuples, tuple.Tuple{Vals: tp.Vals})
		}
	}
	return out
}

// TimesliceIdx returns the indexes of the tuples alive at time t.
func (r *Relation) TimesliceIdx(t int64) []int {
	var out []int
	for i, tp := range r.Rows() {
		if tp.T.Contains(t) {
			out = append(out, i)
		}
	}
	return out
}

// ActiveDomain returns the sorted distinct start and end points of all
// tuples. Between two consecutive boundary points every snapshot is
// constant, so evaluating the algebra's definitions at the boundary points
// suffices (used by the oracle).
func (r *Relation) ActiveDomain() []int64 {
	set := make(map[int64]struct{}, 2*r.Len())
	for _, t := range r.Rows() {
		set[t.T.Ts] = struct{}{}
		set[t.T.Te] = struct{}{}
	}
	out := make([]int64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Span returns the smallest interval covering all tuples, or ok=false if
// the relation is empty.
func (r *Relation) Span() (interval.Interval, bool) {
	rows := r.Rows()
	if len(rows) == 0 {
		return interval.Interval{}, false
	}
	lo, hi := rows[0].T.Ts, rows[0].T.Te
	for _, t := range rows[1:] {
		if t.T.Ts < lo {
			lo = t.T.Ts
		}
		if t.T.Te > hi {
			hi = t.T.Te
		}
	}
	return interval.Interval{Ts: lo, Te: hi}, true
}

// SortCanonical sorts tuples into the canonical total order (values, then
// timestamp) in place and returns the relation for chaining. The sort is
// key-based (order-preserving byte encodings) and not stable; Compare is
// total, so equal tuples are interchangeable.
func (r *Relation) SortCanonical() *Relation {
	r.own()
	tuple.SortByKey(r.Tuples)
	r.invalidateColumnar()
	return r
}

// Dedup removes exact duplicates (values and timestamp); the relation is
// sorted canonically as a side effect.
func (r *Relation) Dedup() *Relation {
	r.SortCanonical()
	out := r.Tuples[:0]
	for i, t := range r.Tuples {
		if i > 0 && t.Equal(r.Tuples[i-1]) {
			continue
		}
		out = append(out, t)
	}
	r.Tuples = out
	r.invalidateColumnar()
	return r
}

// SetEqual reports whether two relations contain the same set of tuples
// (schema names are not compared, only arity via tuple comparison).
func SetEqual(a, b *Relation) bool {
	onlyA, onlyB := Diff(a, b)
	return len(onlyA)+len(onlyB) == 0
}

// Diff returns tuples in a but not in b and tuples in b but not in a
// (helper for test failure messages).
func Diff(a, b *Relation) (onlyA, onlyB []tuple.Tuple) {
	x, y := a.Clone().Dedup(), b.Clone().Dedup()
	i, j := 0, 0
	for i < len(x.Tuples) && j < len(y.Tuples) {
		c := x.Tuples[i].Compare(y.Tuples[j])
		switch {
		case c < 0:
			onlyA = append(onlyA, x.Tuples[i])
			i++
		case c > 0:
			onlyB = append(onlyB, y.Tuples[j])
			j++
		default:
			i++
			j++
		}
	}
	onlyA = append(onlyA, x.Tuples[i:]...)
	onlyB = append(onlyB, y.Tuples[j:]...)
	return onlyA, onlyB
}

// Coalesce merges value-equivalent tuples over adjacent or overlapping
// intervals into maximal intervals. Coalescing deliberately destroys
// change preservation; it is provided as a utility for applications that
// want TSQL2-style maximal periods, and for tests contrasting the two.
func (r *Relation) Coalesce() *Relation {
	out := New(r.Schema)
	sorted := r.Clone().SortCanonical()
	for i := 0; i < len(sorted.Tuples); {
		cur := sorted.Tuples[i]
		j := i + 1
		for j < len(sorted.Tuples) && sorted.Tuples[j].ValsEqual(cur) {
			nt := sorted.Tuples[j].T
			if u, ok := cur.T.Union(nt); ok {
				cur = cur.WithT(u)
				j++
				continue
			}
			break
		}
		out.Tuples = append(out.Tuples, cur)
		i = j
	}
	return out
}

// String renders the relation as an aligned table, one tuple per line.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	b.WriteString(" T\n")
	for _, t := range r.Rows() {
		b.WriteString("  ")
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Builder offers a fluent way to construct relations in tests and examples.
type Builder struct {
	rel *Relation
	err error
}

// NewBuilder starts building a relation over attrs, e.g.
// NewBuilder("n string", "a int").
func NewBuilder(attrs ...string) *Builder {
	parsed := make([]schema.Attr, 0, len(attrs))
	for _, a := range attrs {
		fields := strings.Fields(a)
		if len(fields) != 2 {
			return &Builder{err: fmt.Errorf("relation: bad attribute spec %q (want \"name type\")", a)}
		}
		kind, err := ParseKind(fields[1])
		if err != nil {
			return &Builder{err: err}
		}
		parsed = append(parsed, schema.Attr{Name: fields[0], Type: kind})
	}
	s, err := schema.New(parsed...)
	if err != nil {
		return &Builder{err: err}
	}
	return &Builder{rel: New(s)}
}

// Row appends a tuple with valid time [ts, te); vals are converted with
// Auto.
func (b *Builder) Row(ts, te int64, vals ...any) *Builder {
	if b.err != nil {
		return b
	}
	vv := make([]value.Value, len(vals))
	for i, v := range vals {
		conv, err := Auto(v)
		if err != nil {
			b.err = err
			return b
		}
		vv[i] = conv
	}
	b.err = b.rel.Append(tuple.New(interval.New(ts, te), vv...))
	return b
}

// Build returns the relation or the first error.
func (b *Builder) Build() (*Relation, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.rel, nil
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Relation {
	r, err := b.Build()
	if err != nil {
		panic(err)
	}
	return r
}

// Auto converts a Go value into a value.Value: nil→ω, bool, ints, float64,
// string, interval.Interval, or a value.Value passed through.
func Auto(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case value.Value:
		return x, nil
	case bool:
		return value.NewBool(x), nil
	case int:
		return value.NewInt(int64(x)), nil
	case int32:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	case interval.Interval:
		return value.NewInterval(x), nil
	}
	return value.Null, fmt.Errorf("relation: cannot convert %T to a value", v)
}

// ParseKind parses a type name used by Builder and the CSV loader.
func ParseKind(s string) (value.Kind, error) {
	switch strings.ToLower(s) {
	case "bool":
		return value.KindBool, nil
	case "int", "int64", "bigint", "integer":
		return value.KindInt, nil
	case "float", "float64", "double":
		return value.KindFloat, nil
	case "string", "text", "varchar":
		return value.KindString, nil
	case "period", "interval":
		return value.KindInterval, nil
	}
	return value.KindNull, fmt.Errorf("relation: unknown type %q", s)
}
