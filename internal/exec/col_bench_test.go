package exec

import (
	"math/rand"
	"testing"

	"talign/internal/expr"
	"talign/internal/value"
)

// The vector microbenchmarks: filter, projection and the fused adjust
// over columnar batches, with their row twins for comparison. All report
// allocations — the point of the columnar pipeline is that the steady
// state allocates per batch, not per row.

func benchPred() expr.Expr {
	return expr.Le(expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}, expr.Int(25))
}

func BenchmarkColFilter(b *testing.B) {
	rel := colTestRel(rand.New(rand.NewSource(31)), 8192, false)
	rel.Columnar() // pre-warm: measure the filter, not the conversion
	f, ok := NewColFilter(NewColScan(rel), benchPred())
	if !ok {
		b.Fatal("pred did not compile")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := f.NextCol()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowFilter(b *testing.B) {
	rel := colTestRel(rand.New(rand.NewSource(31)), 8192, false)
	f := NewFilter(NewScan(rel), benchPred())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drainIterator(f); err != nil {
			b.Fatal(err)
		}
	}
}

func benchProjExprs() ([]string, []expr.Expr) {
	return []string{"v", "ts"}, []expr.Expr{
		expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"},
		expr.TStart{},
	}
}

func BenchmarkColProject(b *testing.B) {
	rel := colTestRel(rand.New(rand.NewSource(32)), 8192, false)
	rel.Columnar()
	_, exprs := benchProjExprs()
	names, _ := benchProjExprs()
	rp, err := NewProject(NewScan(rel), names, exprs)
	if err != nil {
		b.Fatal(err)
	}
	p, ok := NewColProject(NewColScan(rel), exprs, rp.Out, TKeep, nil)
	if !ok {
		b.Fatal("projection did not compile")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := p.NextCol()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowProject(b *testing.B) {
	rel := colTestRel(rand.New(rand.NewSource(32)), 8192, false)
	names, exprs := benchProjExprs()
	p, err := NewProject(NewScan(rel), names, exprs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drainIterator(p); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAdjustKeys() []expr.EquiPair {
	k := expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"}
	return []expr.EquiPair{{Left: k, Right: k}}
}

func BenchmarkColFusedAdjust(b *testing.B) {
	r := rand.New(rand.NewSource(33))
	left := colTestRel(r, 2048, false)
	right := colTestRel(r, 2048, false)
	left.Columnar()
	right.Columnar()
	f, err := NewColFusedAdjust(NewColScan(left), NewColScan(right), ModeAlign, GroupHash, benchAdjustKeys(), nil, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := f.NextCol()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// drainIterator runs a row pipeline to exhaustion.
func drainIterator(it Iterator) error {
	if err := it.Open(); err != nil {
		return err
	}
	for {
		batch, err := it.Next()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
	}
	return it.Close()
}
