package exec

import (
	"math"
	"math/rand"
	"testing"

	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// TestAbsorbDef12 checks α on the paper's Example 9 shape plus duplicates.
func TestAbsorbDef12(t *testing.T) {
	in := relation.NewBuilder("x string").
		Row(1, 9, "a").
		Row(3, 7, "a").  // properly contained: removed
		Row(1, 9, "a").  // exact duplicate: collapsed
		Row(3, 7, "b").  // different value: kept
		Row(1, 5, "a").  // shares start with [1,9): contained, removed
		Row(5, 9, "a").  // shares end with [1,9): contained, removed
		Row(8, 12, "a"). // overlaps but not contained: kept
		MustBuild()
	got, err := Collect(NewColAbsorb(NewColScan(in)))
	if err != nil {
		t.Fatalf("absorb: %v", err)
	}
	want := relation.NewBuilder("x string").
		Row(1, 9, "a").
		Row(8, 12, "a").
		Row(3, 7, "b").
		MustBuild()
	if !relation.SetEqual(got, want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAbsorbEmpty covers the trivial cases.
func TestAbsorbEmpty(t *testing.T) {
	in := relation.NewBuilder("x string").MustBuild()
	got, err := Collect(NewColAbsorb(NewColScan(in)))
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty absorb: %v %v", got, err)
	}
}

// absorbDef12 is α by the letter of Def. 12: a tuple stays unless some
// value-equivalent tuple's timestamp properly contains its own; duplicates
// collapse (set semantics).
func absorbDef12(in *relation.Relation) *relation.Relation {
	out := relation.New(in.Schema)
	for i, t := range in.Tuples {
		keep := true
		for j, u := range in.Tuples {
			if t.ValsEqual(u) && (u.T.ProperContains(t.T) || (j < i && u.T == t.T)) {
				keep = false
				break
			}
		}
		if keep {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// TestColAbsorbDifferential checks the operator against the definition on
// random relations with duplicates, nested and chained intervals, ω and
// NaN cells, at the default batch size and at 2 — and that its output
// comes sorted by (values, Ts ascending, Te descending).
func TestColAbsorbDifferential(t *testing.T) {
	sch := schema.Schema{Attrs: []schema.Attr{{Name: "x", Type: value.KindFloat}, {Name: "s", Type: value.KindString}}}
	rng := rand.New(rand.NewSource(12))
	xs := []value.Value{value.Null, value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0xFFF8000000000000)), value.NewInt(1), value.NewFloat(1)}
	for round := 0; round < 200; round++ {
		in := relation.New(sch)
		for i, n := 0, rng.Intn(25); i < n; i++ {
			ts := int64(rng.Intn(6))
			in.MustAppend(mkT(ts, ts+1+int64(rng.Intn(6)), xs[rng.Intn(len(xs))], value.NewString(string(rune('a'+rng.Intn(2))))))
		}
		want := absorbDef12(in)
		for _, batch := range []int{0, 2} {
			ab := NewColAbsorb(ApplyColBatch(NewColScan(in), batch))
			got := collect(t, ApplyColBatch(ab, batch))
			if !sameRows(got, want) {
				t.Fatalf("round %d batch=%d: got\n%s\nwant\n%s\ninput\n%s", round, batch, got, want, in)
			}
			for i := 1; i < got.Len(); i++ {
				a, b := got.Tuples[i-1], got.Tuples[i]
				if c := a.CompareVals(b); c > 0 || (c == 0 && (a.T.Ts > b.T.Ts || (a.T.Ts == b.T.Ts && a.T.Te < b.T.Te))) {
					t.Fatalf("round %d batch=%d: rows %d and %d out of order:\n%s", round, batch, i-1, i, got)
				}
			}
		}
	}
}
