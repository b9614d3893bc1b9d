package exec

import (
	"bytes"
	"hash/maphash"
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

func collectRows(t *testing.T, it Iterator) []tuple.Tuple {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := drainAppend(nil, it)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestColScanMaterializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	rel := colTestRel(r, 300, true)
	scan := NewColScan(rel)
	scan.SetBatchSize(64)
	got := collectRows(t, NewMaterialize(scan))
	assertSameRows(t, got, append([]tuple.Tuple(nil), rel.Tuples...))
}

func TestColFilterMatchesRowFilter(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rel := colTestRel(r, 500, true)
	ci := func(i int) expr.Expr { return expr.ColIdx{Idx: i, Typ: value.KindInt} }
	preds := []expr.Expr{
		expr.Le(ci(0), expr.Int(4)),                                         // int kernel
		expr.Gt(expr.Int(3), ci(0)),                                         // flipped kernel
		expr.Ne(ci(1), expr.Int(7)),                                         // mixed column: kernel bails per batch
		expr.And(expr.Ge(ci(0), expr.Int(2)), expr.Lt(ci(1), expr.Int(30))), // row closure
		expr.Or(expr.IsNull{X: ci(0)}, expr.Eq(ci(0), expr.Int(1))),
		expr.Neg(expr.Le(ci(0), expr.Int(3))), // NOT over ω must stay ω (dropped)
		expr.Between{X: ci(1), Lo: expr.Int(10), Hi: expr.Int(20)},
		expr.Le(expr.TStart{}, expr.Int(40)), // time kernel
		expr.Gt(expr.TEnd{}, expr.Int(60)),
	}
	for pi, pred := range preds {
		cf, ok := NewColFilter(NewColScan(rel), pred)
		if !ok {
			t.Fatalf("pred %d did not compile", pi)
		}
		got := collectRows(t, NewMaterialize(cf))
		want := collectRows(t, NewFilter(NewScan(rel), pred))
		assertSameRows(t, got, want)
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
			expr.Le(expr.ColIdx{Idx: 0, Typ: value.KindInt}, expr.Int(5))), // row-closure path
	} {
		cf, ok := NewColFilter(NewColScan(rel), pred)
		if !ok {
			t.Fatal("pred did not compile")
		}
		if got := collectRows(t, NewMaterialize(cf)); len(got) != 0 {
			t.Fatalf("zero-match filter leaked %d rows: %v", len(got), got)
		}
	}
}

func TestColProjectMatchesRowProject(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	rel := colTestRel(r, 200, true)
	exprs := []expr.Expr{
		expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"},
		expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"},
		expr.TStart{},
		expr.TEnd{},
	}
	names := []string{"v", "k", "ts", "te"}
	// TFromExpr recomputes T from PERIOD over int columns; the nullable
	// column 0 exercises the ω drop and k >= v the empty-period drop.
	// The mixed relation demotes column 1, so TFromExpr runs on a flat
	// one (both paths panic identically on non-int bounds).
	flatRel := colTestRel(rand.New(rand.NewSource(21)), 200, false)
	texprs := map[TPolicy]expr.Expr{
		TFromExpr: expr.Call("PERIOD",
			expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"},
			expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}),
	}
	for _, tmode := range []TPolicy{TKeep, TZero, TFromExpr} {
		src := rel
		if tmode == TFromExpr {
			src = flatRel
		}
		rp, err := NewProject(NewScan(src), names, exprs)
		if err != nil {
			t.Fatal(err)
		}
		rp.TMode = tmode
		rp.TExpr = texprs[tmode]
		want := collectRows(t, rp)

		cp, ok := NewColProject(NewColScan(src), exprs, rp.Out, tmode, texprs[tmode])
		if !ok {
			t.Fatal("projection did not compile")
		}
		got := collectRows(t, NewMaterialize(cp))
		assertSameRows(t, got, want)

		// The same over a filter's sparse selections (TFromExpr and TZero
		// then gather the survivors instead of sharing column storage).
		pred := expr.Ge(expr.ColIdx{Idx: 1, Typ: value.KindInt}, expr.Int(25))
		rp, _ = NewProject(NewFilter(NewScan(src), pred), names, exprs)
		rp.TMode, rp.TExpr = tmode, texprs[tmode]
		cf, ok := NewColFilter(NewColScan(src), pred)
		if !ok {
			t.Fatal("filter did not compile")
		}
		cp, _ = NewColProject(cf, exprs, rp.Out, tmode, texprs[tmode])
		assertSameRows(t, collectRows(t, NewMaterialize(cp)), collectRows(t, rp))
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

	f := NewFilter(NewScan(big), point)
	if rows := collectRows(t, f); len(rows) != 1 || cap(f.outBuf) > 1000 {
		t.Fatalf("row filter kept %d rows in a buffer of cap %d, want 1 row and at most the 1 000 in hand", len(rows), cap(f.outBuf))
	}

	// Columnar: one row selected of a 1 000-row batch. The projection's
	// recomputed valid times take arrays of their own; they must be sized
	// by the selection, not by the physical batch.
	cf, _ := NewColFilter(NewColScan(big), point)
	exprs := []expr.Expr{expr.ColIdx{Idx: 1, Typ: value.KindInt}}
	period := expr.Call("PERIOD", expr.TStart{}, expr.TEnd{})
	out := schema.MustNew(schema.Attr{Name: "v", Type: value.KindInt})
	for _, tmode := range []TPolicy{TFromExpr, TZero} {
		cp, ok := NewColProject(cf, exprs, out, tmode, period)
		if !ok {
			t.Fatal("projection did not compile")
		}
		if err := cp.Open(); err != nil {
			t.Fatal(err)
		}
		b, err := cp.NextCol()
		if err != nil || b == nil {
			t.Fatalf("NextCol: %v, %v", b, err)
		}
		if b.NumRows() != 1 || b.Len() != 1 || cap(b.TS) > 8 {
			t.Fatalf("policy %d: %d selected of %d physical rows over valid-time arrays of cap %d, want a compact 1-row batch",
				tmode, b.NumRows(), b.Len(), cap(b.TS))
		}
		cp.Close()
	}
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
		rowLim, err := NewLimit(NewFilter(NewScan(rel), pred), tc.n, tc.off)
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, rowLim)

		cf, ok := NewColFilter(NewColScan(rel), pred)
		if !ok {
			t.Fatal("pred did not compile")
		}
		got := collectRows(t, NewMaterialize(NewColLimit(cf, tc.n, tc.off)))
		// LIMIT output is prefix-dependent; both paths stream in scan
		// order, so rows must match exactly, not just as sets.
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

func TestColSetOpUnionMatchesRow(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 5; trial++ {
		l := colTestRel(r, 200, true)
		rr := colTestRel(r, 200, true)
		rowOp, err := NewSetOp(NewScan(l), NewScan(rr), UnionOp)
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, rowOp)

		colOp, err := NewColSetOp(NewColScan(l), NewColScan(rr))
		if err != nil {
			t.Fatal(err)
		}
		got := collectRows(t, NewMaterialize(colOp))
		assertSameRows(t, got, want)
	}
}

// TestColSplitterPartitions checks that the columnar splitter preserves
// the row multiset across partitions and co-partitions equal keys under
// a shared seed (including int/float key equality).
func TestColSplitterPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	rel := colTestRel(r, 500, true)
	const dop = 4
	seed := maphash.MakeSeed()
	keys := []expr.Expr{expr.ColIdx{Idx: 1, Typ: value.KindInt}}

	mk := func() *ColSplitter {
		sp, ok, err := NewColSplitter(NewColScan(rel), keys, dop, seed)
		if err != nil || !ok {
			t.Fatalf("splitter: ok=%v err=%v", ok, err)
		}
		return sp
	}
	spA, spB := mk(), mk()
	var all []tuple.Tuple
	partOf := map[string]int{} // encoded key -> partition (run A)
	for i := 0; i < dop; i++ {
		rows := collectRows(t, NewMaterialize(spA.Partition(i)))
		for _, tp := range rows {
			partOf[string(tp.Vals[1].AppendKey(nil))] = i
		}
		all = append(all, rows...)
	}
	assertSameRows(t, all, append([]tuple.Tuple(nil), rel.Tuples...))
	// Run B (fresh splitter, same seed) must agree on every key's home.
	for i := 0; i < dop; i++ {
		rows := collectRows(t, NewMaterialize(spB.Partition(i)))
		for _, tp := range rows {
			if want, okk := partOf[string(tp.Vals[1].AppendKey(nil))]; okk && want != i {
				t.Fatalf("key %v routed to partition %d, expected %d", tp.Vals[1], i, want)
			}
		}
	}
}

func TestToColRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	rel := colTestRel(r, 150, true)
	got := collectRows(t, NewMaterialize(NewToCol(NewScan(rel))))
	assertSameRows(t, got, append([]tuple.Tuple(nil), rel.Tuples...))
}
