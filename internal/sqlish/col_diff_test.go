package sqlish_test

import (
	"bytes"
	"math/rand"
	"testing"

	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// colServers builds a server under default flags and one with a tiny
// batch size (stressing selection vectors across batch boundaries) over
// the same analyzed relations.
func colServers(rels map[string]*relation.Relation) (col, colSmall *server.Server) {
	small := plan.DefaultFlags()
	small.BatchSize = 3
	return newServer(plan.DefaultFlags(), true, rels), newServer(small, true, rels)
}

func assertByteEqual(t *testing.T, tag, q string, seed int, got, want *relation.Relation) {
	t.Helper()
	gk, wk := sqltest.Keys(got), sqltest.Keys(want)
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
		col, colSmall := colServers(rels)
		for _, q := range sqlish.DiffQueries {
			want, _, err := query(t, col, q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			got, _, err := query(t, colSmall, q)
			if err != nil {
				t.Fatalf("seed %d: batch=3 %s: %v", seed, q, err)
			}
			assertByteEqual(t, "batch=3", q, seed, got, want)
		}
	}
}
