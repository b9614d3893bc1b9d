package colbatch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// randValue draws a value of the given kind, with ω and (for numeric
// columns) cross-kind mixing thrown in to exercise demotion.
func randValue(r *rand.Rand, k value.Kind) value.Value {
	if r.Intn(6) == 0 {
		return value.Null
	}
	if k.Numeric() && r.Intn(4) == 0 {
		// Mixed numeric column: relation.Append permits this.
		if k == value.KindInt {
			k = value.KindFloat
		} else {
			k = value.KindInt
		}
	}
	switch k {
	case value.KindInt:
		return value.NewInt(r.Int63n(1000) - 500)
	case value.KindFloat:
		switch r.Intn(8) {
		case 0:
			return value.NewFloat(math.NaN())
		case 1:
			return value.NewFloat(math.Inf(1))
		case 2:
			return value.NewFloat(math.Copysign(0, -1))
		}
		return value.NewFloat((r.Float64() - 0.5) * 100)
	case value.KindBool:
		return value.NewBool(r.Intn(2) == 0)
	case value.KindString:
		bs := make([]byte, r.Intn(6))
		for i := range bs {
			bs[i] = byte(r.Intn(4)) // includes 0x00 to exercise escaping
		}
		return value.NewString(string(bs))
	case value.KindInterval:
		ts := r.Int63n(100)
		return value.NewInterval(interval.Interval{Ts: ts, Te: ts + 1 + r.Int63n(20)})
	}
	return value.Null
}

func randTuples(r *rand.Rand, s schema.Schema, n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		vals := make([]value.Value, s.Len())
		for c := range vals {
			vals[c] = randValue(r, s.Attrs[c].Type)
		}
		ts := r.Int63n(1000)
		rows[i] = tuple.Tuple{Vals: vals, T: interval.Interval{Ts: ts, Te: ts + 1 + r.Int63n(50)}}
	}
	return rows
}

var testSchema = schema.MustNew(
	schema.Attr{Name: "a", Type: value.KindInt},
	schema.Attr{Name: "b", Type: value.KindFloat},
	schema.Attr{Name: "c", Type: value.KindString},
	schema.Attr{Name: "d", Type: value.KindBool},
	schema.Attr{Name: "e", Type: value.KindInterval},
	schema.Attr{Name: "u", Type: value.KindNull},
)

// TestKeyIdentity is the load-bearing test of the package: batch key
// encoders must be byte-identical to the row encoders, for every row,
// including after demotion and through views.
func TestKeyIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows := randTuples(r, testSchema, 64)
		b := FromTuples(nil, testSchema, rows)
		if b.Len() != len(rows) {
			t.Fatalf("Len = %d, want %d", b.Len(), len(rows))
		}
		for i := range rows {
			want := rows[i].AppendKey(nil)
			got := b.AppendRowKey(nil, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("row %d: AppendRowKey mismatch\n got %x\nwant %x\nrow %v", i, got, want, rows[i])
			}
			wantVals := rows[i].AppendKeyVals(nil)
			gotVals := b.AppendValsKey(nil, i)
			if !bytes.Equal(gotVals, wantVals) {
				t.Fatalf("row %d: AppendValsKey mismatch", i)
			}
			for c := range b.Cols {
				wantCol := rows[i].Vals[c].AppendKey(nil)
				gotCol := b.Cols[c].AppendKey(nil, i)
				if !bytes.Equal(gotCol, wantCol) {
					t.Fatalf("row %d col %d: Vec.AppendKey mismatch (%v)", i, c, rows[i].Vals[c])
				}
			}
		}
		// Views must encode identically too.
		lo, hi := 16, 48
		var view Batch
		b.SliceInto(&view, lo, hi)
		for i := 0; i < hi-lo; i++ {
			want := rows[lo+i].AppendKey(nil)
			got := view.AppendRowKey(nil, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("view row %d: key mismatch", i)
			}
		}
	}
}

// TestMaterializeRoundTrip checks tuples -> batch -> tuples is exact
// (same kinds, not merely key-equal: a float 2.0 must stay a float).
func TestMaterializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rows := randTuples(r, testSchema, 200)
	b := FromTuples(nil, testSchema, rows)
	got := b.Materialize(nil)
	if len(got) != len(rows) {
		t.Fatalf("materialized %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].T != rows[i].T {
			t.Fatalf("row %d: T = %v, want %v", i, got[i].T, rows[i].T)
		}
		for c := range rows[i].Vals {
			w, g := rows[i].Vals[c], got[i].Vals[c]
			if g.Kind() != w.Kind() || g.Compare(w) != 0 || g.String() != w.String() {
				t.Fatalf("row %d col %d: %v != %v", i, c, g, w)
			}
		}
	}
}

func TestSelectionAndRowAt(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rows := randTuples(r, testSchema, 50)
	b := FromTuples(nil, testSchema, rows)
	b.Sel = []int32{3, 7, 49}
	if b.NumRows() != 3 || b.Len() != 50 {
		t.Fatalf("NumRows/Len = %d/%d", b.NumRows(), b.Len())
	}
	got := b.Materialize(nil)
	for k, phys := range []int{3, 7, 49} {
		if b.RowAt(k) != phys {
			t.Fatalf("RowAt(%d) = %d", k, b.RowAt(k))
		}
		if !got[k].Equal(rows[phys]) {
			t.Fatalf("selected row %d != source row %d", k, phys)
		}
	}
}

// TestResetReuse checks that a reused batch (including one that demoted a
// column, or had null rows) observes no state from its previous life.
func TestResetReuse(t *testing.T) {
	intSchema := schema.MustNew(schema.Attr{Name: "x", Type: value.KindInt})
	b := New(intSchema)
	b.AppendTuple(tuple.New(interval.New(0, 1), value.NewFloat(1.5))) // demotes
	b.AppendTuple(tuple.New(interval.New(0, 1), value.Null))          // sets a bit
	if _, ok := b.Cols[0].IntsRaw(); ok {
		t.Fatal("column should have demoted")
	}
	b.Reset()
	b.AppendTuple(tuple.New(interval.New(2, 3), value.NewInt(7)))
	if ints, ok := b.Cols[0].IntsRaw(); !ok || ints[0] != 7 {
		t.Fatalf("after reset: ints=%v ok=%v", b.Cols[0].Ints, ok)
	}
	if b.Cols[0].IsNull(0) {
		t.Fatal("stale null bit survived Reset")
	}
	if b.Len() != 1 || b.NumRows() != 1 {
		t.Fatalf("Len/NumRows = %d/%d", b.Len(), b.NumRows())
	}
}

func TestAppendFromAcrossLayouts(t *testing.T) {
	intSchema := schema.MustNew(schema.Attr{Name: "x", Type: value.KindInt})
	src := New(intSchema)
	src.AppendTuple(tuple.New(interval.New(0, 5), value.NewInt(1)))
	src.AppendTuple(tuple.New(interval.New(0, 5), value.NewFloat(2.5))) // demotes src
	src.AppendTuple(tuple.New(interval.New(0, 5), value.Null))

	dst := New(intSchema)
	for i := 0; i < src.Len(); i++ {
		dst.AppendFrom(src, i, src.TS[i], src.TE[i])
	}
	got := dst.Materialize(nil)
	want := src.Materialize(nil)
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].Vals[0].Kind() != want[i].Vals[0].Kind() {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
}

// sameBatchRows fails unless the two batches hold the same logical rows,
// kinds included.
func sameBatchRows(t *testing.T, tag string, got, want *Batch) {
	t.Helper()
	g, w := got.Materialize(nil), want.Materialize(nil)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", tag, len(g), len(w))
	}
	for i := range w {
		if g[i].T != w[i].T {
			t.Fatalf("%s: row %d: T = %v, want %v", tag, i, g[i].T, w[i].T)
		}
		for c := range w[i].Vals {
			if a, b := g[i].Vals[c], w[i].Vals[c]; a.Kind() != b.Kind() || a.String() != b.String() {
				t.Fatalf("%s: row %d col %d: %v (%s), want %v (%s)", tag, i, c, a, a.Kind(), b, b.Kind())
			}
		}
	}
}

// TestBulkAppendsMatchRowAppends: the column-wise AppendBatch (whole
// storage, a gather over a selection, a view with an offset null bitmap,
// a source that is the destination itself) and AppendRows (with ω padding
// for negative indexes) build exactly what appending row by row builds —
// across typed, demoted and untyped columns, into empty and into
// presized and reset destinations.
func TestBulkAppendsMatchRowAppends(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for round := 0; round < 60; round++ {
		src := FromTuples(nil, testSchema, randTuples(r, testSchema, 1+r.Intn(150)))
		if round%3 == 1 { // a view: nullOff > 0
			lo := r.Intn(src.Len())
			view := &Batch{}
			src.SliceInto(view, lo, src.Len())
			src = view
		}
		if round%2 == 1 { // a sparse selection
			for i := 0; i < src.Len(); i++ {
				if r.Intn(3) == 0 {
					src.Sel = append(src.Sel, int32(i))
				}
			}
			if src.Sel == nil {
				src.Sel = []int32{}
			}
		}
		head := FromTuples(nil, testSchema, randTuples(r, testSchema, r.Intn(70)))

		want := New(testSchema)
		got := New(testSchema)
		if round%4 == 0 { // a reset destination keeps stale bitmap words around
			got.AppendBatch(head)
			got.Reset()
		}
		got.Reserve(r.Intn(40))
		for _, in := range []*Batch{head, src} {
			for i := 0; i < in.NumRows(); i++ {
				row := in.RowAt(i)
				want.AppendFrom(in, row, in.TS[row], in.TE[row])
			}
			got.AppendBatch(in)
		}
		sameBatchRows(t, "AppendBatch", got, want)

		n := got.Len()
		got.AppendBatch(got)
		for row := 0; row < n; row++ {
			want.AppendFrom(want, row, want.TS[row], want.TE[row])
		}
		sameBatchRows(t, "AppendBatch(self)", got, want)
	}

	src := FromTuples(nil, testSchema, randTuples(r, testSchema, 40))
	idx := []int32{7, -1, 7, 0, -1, 39}
	out := New(testSchema)
	for c := range out.Cols {
		out.Cols[c].AppendRows(&src.Cols[c], idx)
	}
	for c := range out.Cols {
		for k, row := range idx {
			got, want := out.Cols[c].Value(k), value.Null
			if row >= 0 {
				want = src.Cols[c].Value(int(row))
			}
			if got.Kind() != want.Kind() || got.String() != want.String() {
				t.Fatalf("AppendRows col %d pos %d: %v, want %v", c, k, got, want)
			}
		}
	}
}
