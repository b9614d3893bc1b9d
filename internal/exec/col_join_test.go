package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"talign/internal/expr"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// rowKeys renders a result as its sorted full-row key encodings: two
// results are equal as multisets exactly when the slices are.
func rowKeys(rel *relation.Relation) [][]byte {
	keys := make([][]byte, rel.Len())
	for i := range rel.Tuples {
		keys[i] = rel.Tuples[i].AppendKey(nil)
	}
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	return keys
}

func sameRows(a, b *relation.Relation) bool {
	ka, kb := rowKeys(a), rowKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if !bytes.Equal(ka[i], kb[i]) {
			return false
		}
	}
	return true
}

// keyDomains are the join-key shapes the hash join must get right because
// it compares byte encodings where the row joins compare values: each maps
// the generator's small int alphabet onto one.
var keyDomains = []struct {
	name string
	kind value.Kind
	key  func(v int64, rng *rand.Rand) value.Value
}{
	{"int", value.KindInt, func(v int64, _ *rand.Rand) value.Value { return value.NewInt(v) }},
	{"omega", value.KindInt, func(v int64, _ *rand.Rand) value.Value {
		if v == 0 {
			return value.Null // ω keys never match
		}
		return value.NewInt(v)
	}},
	{"nan+mixed", value.KindFloat, func(v int64, rng *rand.Rand) value.Value {
		switch v {
		case 0: // every NaN is one value, whatever its payload
			if rng.Intn(2) == 0 {
				return value.NewFloat(math.NaN())
			}
			return value.NewFloat(math.Float64frombits(0xFFF8000000000000))
		case 1: // 1 and 1.0 are equal across kinds
			if rng.Intn(2) == 0 {
				return value.NewInt(1)
			}
			return value.NewFloat(1)
		}
		return value.NewFloat(2.5)
	}},
	{"nul-strings", value.KindString, func(v int64, _ *rand.Rand) value.Value {
		// Prefixes of one another around an embedded 0x00: the escaping
		// of the string encoding keeps them distinct.
		return value.NewString([]string{"a", "a\x00", "a\x00b"}[v])
	}},
}

// joinInput generates a relation (k, v) with k drawn from the domain.
func joinInput(rng *rand.Rand, dom int, kname, vname string, maxTuples int) *relation.Relation {
	cfg := randrel.DefaultConfig(schema.Attr{Name: kname, Type: value.KindInt}, schema.Attr{Name: vname, Type: value.KindInt})
	cfg.MaxTuples = maxTuples
	base := randrel.Generate(rng, cfg)
	d := keyDomains[dom]
	out := relation.New(schema.Schema{Attrs: []schema.Attr{{Name: kname, Type: d.kind}, {Name: vname, Type: value.KindInt}}})
	for _, t := range base.Tuples {
		out.MustAppend(mkT(t.T.Ts, t.T.Te, d.key(t.Vals[0].Int(), rng), t.Vals[1]))
	}
	return out
}

// mixValues returns rel with some column-1 values ω and some floats, so
// the column is demoted in its batches.
func mixValues(rng *rand.Rand, rel *relation.Relation) *relation.Relation {
	out := relation.New(rel.Schema)
	for _, tp := range rel.Rows() {
		vals := slices.Clone(tp.Vals)
		switch rng.Intn(5) {
		case 0:
			vals[1] = value.Null
		case 1:
			vals[1] = value.NewFloat(float64(vals[1].Int()) + 0.5)
		}
		out.MustAppend(mkT(tp.T.Ts, tp.T.Te, vals...))
	}
	return out
}

// TestColHashJoinDifferential checks the keyed join against the naive
// nested loop on random inputs across every join type, MatchT on and off,
// with and without a residual θ — one of them computing across the
// left/right split over a right column with ω and float values — over ω,
// NaN, mixed int/float and 0x00-string keys, at the default batch size
// and at 2.
func TestColHashJoinDifferential(t *testing.T) {
	types := []JoinType{InnerJoin, LeftOuterJoin, RightOuterJoin, FullOuterJoin, SemiJoin, AntiJoin}
	for dom, d := range keyDomains {
		rng := rand.New(rand.NewSource(int64(40 + dom)))
		for round := 0; round < 25; round++ {
			r := joinInput(rng, dom, "k", "v", 10)
			s := mixValues(rng, joinInput(rng, dom, "k2", "w", 10))
			lk, rk := expr.ColIdx{Idx: 0, Typ: d.kind}, expr.ColIdx{Idx: 0, Typ: d.kind}
			pairs := []expr.EquiPair{{Left: lk, Right: rk}}
			equi := expr.Eq(lk, expr.ColIdx{Idx: 2, Typ: d.kind})
			v, w := expr.ColIdx{Idx: 1, Typ: value.KindInt}, expr.ColIdx{Idx: 3, Typ: value.KindInt}
			vLEw := expr.Le(v, w)
			vPlusW := expr.Gt(expr.Add(v, w), expr.Int(2)) // l.v + r.w > 2
			for _, residual := range []expr.Expr{nil, vLEw, vPlusW} {
				full := equi
				if residual != nil {
					full = expr.And(equi, residual)
				}
				for _, typ := range types {
					for _, matchT := range []bool{false, true} {
						tag := fmt.Sprintf("%s round %d %s matchT=%v residual=%v", d.name, round, typ, matchT, residual != nil)
						want := naiveJoin(t, r, s, full, typ, matchT)
						for _, batch := range []int{0, 2} {
							hj := NewColHashJoin(ApplyColBatch(NewColScan(r), batch), ApplyColBatch(NewColScan(s), batch), pairs, residual, typ, matchT)
							got := collect(t, ApplyColBatch(hj, batch))
							if !sameRows(got, want) {
								t.Fatalf("%s batch=%d: join differs from nested loop\njoin:\n%s\nnested loop:\n%s\nr:\n%s\ns:\n%s", tag, batch, got, want, r, s)
							}
						}
					}
				}
			}
		}
	}
}

// TestColHashJoinStraddlesBatches: one probe row with five matches and one
// without, at batch size 2. Every batch but the last is exactly full, the
// straddling row resumes mid-chain, and matches come out in build order.
func TestColHashJoinStraddlesBatches(t *testing.T) {
	r := relation.NewBuilder("k int", "v int").Row(0, 9, 7, 100).Row(0, 9, 8, 200).MustBuild()
	sb := relation.NewBuilder("k2 int", "w int")
	for i := 0; i < 5; i++ {
		sb.Row(0, 9, 7, i)
	}
	s := sb.MustBuild()
	pairs := []expr.EquiPair{{Left: expr.CI(0, value.KindInt), Right: expr.CI(0, value.KindInt)}}
	hj := NewColHashJoin(NewColScan(r), NewColScan(s), pairs, nil, LeftOuterJoin, false)
	hj.SetBatchSize(2)
	if err := hj.Open(); err != nil {
		t.Fatal(err)
	}
	defer hj.Close()
	var sizes []int
	var ws []value.Value
	for {
		b, err := hj.NextCol()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, b.NumRows())
		for i := 0; i < b.NumRows(); i++ {
			ws = append(ws, b.Cols[3].Value(b.RowAt(i)))
		}
	}
	if fmt.Sprint(sizes) != "[2 2 2]" {
		t.Fatalf("batch sizes %v, want [2 2 2]", sizes)
	}
	want := []value.Value{value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(4), value.Null}
	for i := range want {
		if !ws[i].Equal(want[i]) {
			t.Fatalf("w column %v, want %v", ws, want)
		}
	}
}
