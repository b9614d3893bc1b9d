package exec

import (
	"math/rand"
	"testing"

	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/value"
)

// The vector microbenchmarks: filter, projection and the fused adjust
// over columnar batches. All report allocations — the steady state
// allocates per batch, not per row.

// benchDrain re-opens and drains it b.N times.
func benchDrain(b *testing.B, it ColIterator) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := it.NextCol()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColFilter(b *testing.B) {
	rel := colTestRel(rand.New(rand.NewSource(31)), 8192, false)
	rel.Columnar() // pre-warm: measure the filter, not the conversion
	benchDrain(b, NewColFilter(NewColScan(rel), expr.Le(expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}, expr.Int(25))))
}

func BenchmarkColProject(b *testing.B) {
	rel := colTestRel(rand.New(rand.NewSource(32)), 8192, false)
	rel.Columnar()
	out := schema.MustNew(schema.Attr{Name: "v", Type: value.KindInt}, schema.Attr{Name: "ts", Type: value.KindInt})
	exprs := []expr.Expr{expr.ColIdx{Idx: 1, Typ: value.KindInt, Name: "v"}, expr.TStart{}}
	benchDrain(b, NewColProject(NewColScan(rel), exprs, out, TKeep, nil))
}

func BenchmarkColFusedAdjust(b *testing.B) {
	r := rand.New(rand.NewSource(33))
	left := colTestRel(r, 2048, false)
	right := colTestRel(r, 2048, false)
	left.Columnar()
	right.Columnar()
	k := expr.ColIdx{Idx: 0, Typ: value.KindInt, Name: "k"}
	b.Run("keyed", func(b *testing.B) {
		benchDrain(b, NewColFusedAdjust(NewColScan(left), NewColScan(right), ModeAlign, []expr.EquiPair{{Left: k, Right: k}}, nil))
	})
	b.Run("keyless", func(b *testing.B) {
		benchDrain(b, NewColFusedAdjust(NewColScan(left), NewColScan(right), ModeAlign, nil, nil))
	})
}
