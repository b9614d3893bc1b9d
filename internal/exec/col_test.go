package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// colTestRel builds a small random int relation (k, v) with occasional ω
// and float-mixed values, timestamps in [0, 100).
func colTestRel(r *rand.Rand, n int, mixed bool) *relation.Relation {
	s := schema.MustNew(
		schema.Attr{Name: "k", Type: value.KindInt},
		schema.Attr{Name: "v", Type: value.KindInt},
	)
	rel := relation.New(s)
	for i := 0; i < n; i++ {
		k := value.Value(value.NewInt(r.Int63n(8)))
		v := value.Value(value.NewInt(r.Int63n(50)))
		if r.Intn(10) == 0 {
			k = value.Null
		}
		if mixed && r.Intn(7) == 0 {
			v = value.NewFloat(float64(r.Int63n(50)))
		}
		ts := r.Int63n(90)
		rel.MustAppend(tuple.New(interval.New(ts, ts+1+r.Int63n(10)), k, v))
	}
	return rel
}

// sortedKeys canonicalizes a row set for byte-equal comparison.
func sortedKeys(t *testing.T, rows []tuple.Tuple) [][]byte {
	t.Helper()
	keys := make([][]byte, len(rows))
	for i := range rows {
		keys[i] = rows[i].AppendKey(nil)
	}
	tuple.KeySort(rows, keys)
	return keys
}

// assertSameRows fails unless the two row sets are byte-equal after
// canonical sorting.
func assertSameRows(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	gk, wk := sortedKeys(t, got), sortedKeys(t, want)
	if len(gk) != len(wk) {
		t.Fatalf("row count %d, want %d", len(gk), len(wk))
	}
	for i := range gk {
		if !bytes.Equal(gk[i], wk[i]) {
			t.Fatalf("row %d differs:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

func TestColScanMaterializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	rel := colTestRel(r, 300, true)
	scan := NewColScan(rel)
	scan.SetBatchSize(64)
	got := drainCol(t, scan)
	assertSameRows(t, got, append([]tuple.Tuple(nil), rel.Tuples...))
}

func TestColFilterMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rel := colTestRel(r, 500, true)
	ci := func(i int) expr.Expr { return expr.ColIdx{Idx: i, Typ: value.KindInt} }
	preds := []expr.Expr{
		expr.Le(ci(0), expr.Int(4)),                                         // int kernel
		expr.Gt(expr.Int(3), ci(0)),                                         // flipped kernel
		expr.Ne(ci(1), expr.Int(7)),                                         // mixed column: kernel bails per batch
		expr.And(expr.Ge(ci(0), expr.Int(2)), expr.Lt(ci(1), expr.Int(30))), // row by row
		expr.Or(expr.IsNull{X: ci(0)}, expr.Eq(ci(0), expr.Int(1))),
		expr.Neg(expr.Le(ci(0), expr.Int(3))), // NOT over ω must stay ω (dropped)
		expr.Between{X: ci(1), Lo: expr.Int(10), Hi: expr.Int(20)},
		expr.Le(expr.TStart{}, expr.Int(40)), // time kernel
		expr.Gt(expr.TEnd{}, expr.Int(60)),
		expr.Ge(expr.Call("DUR", expr.TStart{}, expr.TEnd{}), expr.Int(5)),                   // computed operand
		expr.And(expr.Le(ci(0), expr.Int(4)), expr.Gt(expr.Add(ci(0), ci(1)), expr.Int(20))), // AND over a computed operand
		expr.Or(expr.IsNull{X: expr.Div(expr.Int(6), ci(0))}, expr.Neg(expr.Lt(expr.Mul(ci(0), expr.Int(2)), ci(1)))),
	}
	for _, pred := range preds {
		got := drainCol(t, NewColFilter(NewColScan(rel), pred))
		assertSameRows(t, got, naiveFilter(t, rel.Rows(), pred))
	}
	// An evaluation error ends the stream with expr.EvalBool's own error on
	// the same rows; a short-circuited one never happens. A connective over
	// a non-truth value is the connective's error, not the predicate's.
	bad := expr.Eq(expr.Call("ABS", expr.Str("x")), expr.Int(1))
	for _, c := range []struct {
		pred    expr.Expr
		wantErr bool
	}{
		{bad, true},
		{expr.Or(expr.Bool(false), bad), true},
		{expr.And(expr.Bool(false), bad), false},
		{expr.And(expr.Bool(true), expr.Int(5)), true},
		{expr.Or(expr.Lt(ci(1), expr.Int(-1)), expr.Int(5)), true},
		{expr.Neg(expr.Int(5)), true},
	} {
		var want error
		for _, tp := range rel.Rows() {
			if _, want = expr.EvalBool(c.pred, &expr.Env{Vals: tp.Vals, T: tp.T}); want != nil {
				break
			}
		}
		f := NewColFilter(NewColScan(rel), c.pred)
		if err := f.Open(); err != nil {
			t.Fatal(err)
		}
		_, err := f.NextCol()
		if (err != nil) != c.wantErr || fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s: NextCol error = %v, want %v", c.pred, err, want)
		}
		f.Close()
	}
}

// TestColFilterZeroMatchFirstBatch pins the nil-vs-empty selection
// distinction: when the very first batch matches nothing, the filter
// must emit a non-nil empty selection — a nil Sel means "all rows" and
// would leak the entire batch.
func TestColFilterZeroMatchFirstBatch(t *testing.T) {
	s := schema.MustNew(schema.Attr{Name: "v", Type: value.KindInt})
	rel := relation.New(s)
	rel.MustAppend(tuple.New(interval.New(7, 8), value.NewInt(0)))
	for _, pred := range []expr.Expr{
		expr.Ge(expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.Int(1)), // kernel path
		expr.And(expr.Ge(expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.Int(1)),
			expr.Le(expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.Int(5))), // row-by-row path
	} {
		if got := drainCol(t, NewColFilter(NewColScan(rel), pred)); len(got) != 0 {
			t.Fatalf("zero-match filter leaked %d rows: %v", len(got), got)
		}
	}
}

func TestColProjectMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	rel := colTestRel(r, 200, true)
	k, v := expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"}, expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}
	// TFromExpr recomputes T from PERIOD over int columns; the nullable
	// column 0 exercises the ω drop and k >= v the empty-period drop.
	// The mixed relation demotes column 1, so TFromExpr runs on a flat
	// one (PERIOD panics on non-int bounds).
	flatRel := colTestRel(rand.New(rand.NewSource(21)), 200, false)
	for _, c := range []struct {
		exprs []expr.Expr // header shuffle, then computed
		tmode TPolicy
		texpr expr.Expr
	}{
		{[]expr.Expr{v, k, expr.TStart{}, expr.TEnd{}}, TKeep, nil},
		{[]expr.Expr{v, k, expr.TStart{}, expr.TEnd{}}, TFromExpr, expr.Call("PERIOD", k, v)},
		{[]expr.Expr{expr.Add(k, v), k, expr.Div(expr.Int(6), k), expr.TEnd{}}, TKeep, nil},
		{[]expr.Expr{expr.Mul(v, expr.Int(2))}, TKeep, nil},
		{[]expr.Expr{v, expr.Sub(v, k)}, TFromExpr, expr.Call("PERIOD", k, v)},
		{[]expr.Expr{k}, TFromExpr, expr.Call("PERIOD", expr.Add(expr.TStart{}, k), expr.Add(k, v))},
	} {
		src := rel
		if c.tmode == TFromExpr {
			src = flatRel
		}
		attrs := make([]schema.Attr, len(c.exprs))
		for i, e := range c.exprs {
			attrs[i] = schema.Attr{Name: fmt.Sprint("c", i), Type: e.Type()}
		}
		out := schema.Schema{Attrs: attrs}
		got := drainCol(t, NewColProject(NewColScan(src), c.exprs, out, c.tmode, c.texpr))
		assertSameRows(t, got, naiveProject(t, src.Rows(), c.exprs, c.tmode, c.texpr))

		// The same over a filter's sparse selections (TFromExpr then
		// gathers the survivors instead of sharing column storage).
		pred := expr.Ge(v, expr.Int(25))
		got = drainCol(t, NewColProject(NewColFilter(NewColScan(src), pred), c.exprs, out, c.tmode, c.texpr))
		assertSameRows(t, got, naiveProject(t, naiveFilter(t, src.Rows(), pred), c.exprs, c.tmode, c.texpr))
	}
}

// TestFirstBuffersSizedByRowsInHand pins the buffer rule of roomFor: an
// operator's first output buffer holds the rows it has in hand — a point
// query's two rows do not pay for 1 024 — and a buffer that turns out too
// small is replaced by one of keptRows (what a re-opened point query keeps
// from execution to execution), then by a full-size one.
func TestFirstBuffersSizedByRowsInHand(t *testing.T) {
	s := roomFor([]int32(nil), 2, 1024)
	if cap(s) != 2 {
		t.Fatalf("first buffer has cap %d, want the 2 rows in hand", cap(s))
	}
	if s = roomFor(s[:2], 1, 1024); cap(s) != keptRows {
		t.Fatalf("regrown buffer has cap %d, want keptRows = %d", cap(s), keptRows)
	}
	if s = roomFor(s[:keptRows], 1, 1024); cap(s) != 1024 {
		t.Fatalf("buffer regrown past keptRows has cap %d, want the limit 1024", cap(s))
	}

	rel := relation.NewBuilder("k int", "v int")
	for i := 0; i < 1000; i++ {
		rel.Row(int64(i), int64(i)+5, i, i%7)
	}
	big := rel.MustBuild()
	point := expr.Eq(expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.Int(500))

	// One row selected of a 1 000-row batch. The projection's
	// recomputed valid times take arrays of their own; they must be sized
	// by the selection, not by the physical batch.
	cf := NewColFilter(NewColScan(big), point)
	exprs := []expr.Expr{expr.ColIdx{Idx: 1, Typ: value.KindInt}}
	period := expr.Call("PERIOD", expr.TStart{}, expr.TEnd{})
	out := schema.MustNew(schema.Attr{Name: "v", Type: value.KindInt})
	cp := NewColProject(cf, exprs, out, TFromExpr, period)
	if err := cp.Open(); err != nil {
		t.Fatal(err)
	}
	b, err := cp.NextCol()
	if err != nil || b == nil {
		t.Fatalf("NextCol: %v, %v", b, err)
	}
	if b.NumRows() != 1 || b.Len() != 1 || cap(b.TS) > 8 {
		t.Fatalf("%d selected of %d physical rows over valid-time arrays of cap %d, want a compact 1-row batch",
			b.NumRows(), b.Len(), cap(b.TS))
	}
	cp.Close()
}

// TestColLimitCountsSelectedRows is the regression test for OFFSET over
// selection vectors: the limit must count surviving (selected) rows, not
// physical batch rows.
func TestColLimitCountsSelectedRows(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rel := colTestRel(r, 400, false)
	pred := expr.Le(expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.Int(3))
	for _, tc := range []struct{ n, off int64 }{
		{10, 0}, {10, 5}, {-1, 7}, {0, 3}, {5, 1000}, {1000, 2},
	} {
		want := naiveFilter(t, rel.Rows(), pred)
		want = want[min(tc.off, int64(len(want))):]
		if tc.n >= 0 {
			want = want[:min(tc.n, int64(len(want)))]
		}
		got := drainCol(t, must(NewColLimit(NewColFilter(NewColScan(rel), pred), tc.n, tc.off)))
		// LIMIT output is prefix-dependent; both stream in scan order, so
		// rows must match exactly, not just as sets.
		if len(got) != len(want) {
			t.Fatalf("n=%d off=%d: got %d rows, want %d", tc.n, tc.off, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("n=%d off=%d row %d: %v != %v", tc.n, tc.off, i, got[i], want[i])
			}
		}
	}
}

func TestColSetOpMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 5; trial++ {
		l := colTestRel(r, 200, true)
		rr := colTestRel(r, 200, true)
		rr.Tuples = append(rr.Tuples, l.Tuples[:60]...) // a real intersection
		for _, kind := range []SetOpKind{UnionOp, IntersectOp, ExceptOp} {
			got := drainCol(t, must(NewColSetOp(NewColScan(l), NewColScan(rr), kind)))
			assertSameRows(t, got, naiveSetOp(l.Rows(), rr.Rows(), kind))
		}
		assertSameRows(t, drainCol(t, NewColDistinct(NewColScan(rr))), naiveSetOp(rr.Rows(), nil, UnionOp))
	}
	if _, err := NewColSetOp(NewColScan(colTestRel(r, 1, false)), NewColScan(limitRel(t, 1)), ExceptOp); err == nil {
		t.Fatal("a union-incompatible pair built")
	}
}

// TestColSortMatchesNaive: multi-key, DESC, expression and valid-time keys,
// in order, ties broken by the full row key.
func TestColSortMatchesNaive(t *testing.T) {
	rel := colTestRel(rand.New(rand.NewSource(18)), 300, true)
	k, v := expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.ColIdx{Idx: 1, Typ: value.KindInt}
	for _, keys := range [][]SortKey{
		{{Expr: k}}, {{Expr: v, Desc: true}, {Expr: k}}, {{Expr: expr.TEnd{}, Desc: true}, {Expr: expr.TStart{}}},
		{{Expr: expr.Add(k, v), Desc: true}}, nil,
	} {
		for _, batch := range []int{7, 0} {
			got := drainCol(t, ApplyColBatch(NewColSort(NewColFilter(NewColScan(rel), expr.Ge(v, expr.Int(5))), keys...), batch))
			want := naiveSort(t, naiveFilter(t, rel.Rows(), expr.Ge(v, expr.Int(5))), keys)
			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("keys %v: row %d is %v, want %v", keys, i, got[i], want[i])
				}
			}
		}
	}
}
