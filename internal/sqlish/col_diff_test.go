package sqlish

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// colEngines builds an engine under default flags and one with a tiny batch
// size (stressing selection vectors across batch boundaries) over the same
// relations.
func colEngines(t *testing.T, rels map[string]*relation.Relation) (col, colSmall *Engine) {
	t.Helper()
	mk := func(mut func(*plan.Flags)) *Engine {
		f := plan.DefaultFlags()
		mut(&f)
		e := NewEngine(f)
		for name, rel := range rels {
			e.Register(name, rel)
			if _, err := e.Analyze(name); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	return mk(func(*plan.Flags) {}), mk(func(f *plan.Flags) { f.BatchSize = 3 })
}

// canonKeys renders a result as its sorted per-row key encodings, so two
// results compare byte-equal exactly when every row (values and valid
// time) is identical.
func canonKeys(rel *relation.Relation) [][]byte {
	keys := make([][]byte, rel.Len())
	for i := range rel.Rows() {
		keys[i] = rel.Rows()[i].AppendKey(nil)
	}
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	return keys
}

func assertByteEqual(t *testing.T, tag, q string, seed int, got, want *relation.Relation) {
	t.Helper()
	gk, wk := canonKeys(got), canonKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("seed %d: %s row count diverged on %s: %d vs %d", seed, tag, q, len(gk), len(wk))
	}
	for i := range gk {
		if !bytes.Equal(gk[i], wk[i]) {
			t.Fatalf("seed %d: %s diverged on %s at sorted row %d:\n% x\nvs\n% x",
				seed, tag, q, i, gk[i], wk[i])
		}
	}
}

// TestColumnarDifferential proves, over randomized relations and the same
// query corpus the optimizer differential uses, that a 3-row batch, which
// forces every operator across batch boundaries, returns byte-identical
// rows to the default batch size. (TestRowReference holds both to the
// deleted row executor's answers.)
func TestColumnarDifferential(t *testing.T) {
	attrs := []schema.Attr{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	}
	const seeds = 30
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		cfg := randrel.DefaultConfig(attrs...)
		cfg.MaxTuples = 12
		rels := map[string]*relation.Relation{
			"r": randrel.Generate(rng, cfg),
			"s": randrel.Generate(rng, cfg),
			"u": randrel.Generate(rng, cfg),
		}
		col, colSmall := colEngines(t, rels)
		for _, q := range diffQueries {
			want, _, err := col.Query(q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			got, _, err := colSmall.Query(q)
			if err != nil {
				t.Fatalf("seed %d: batch=3 %s: %v", seed, q, err)
			}
			assertByteEqual(t, "batch=3", q, seed, got, want)
		}
	}
}
