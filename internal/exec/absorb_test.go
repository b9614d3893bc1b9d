package exec

import (
	"testing"

	"talign/internal/relation"
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
	got, err := Collect(NewAbsorb(NewScan(in)))
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
	got, err := Collect(NewAbsorb(NewScan(in)))
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty absorb: %v %v", got, err)
	}
}
