package sqlish_test

import (
	"math/rand"
	"strings"
	"testing"

	"talign/internal/exec"
	"talign/internal/interval"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/sqlish"
	"talign/internal/storage"
	"talign/internal/tuple"
	"talign/internal/value"
)

// persist round-trips rels through an on-disk store and returns their
// segment-backed images (small segments so multi-segment pruning paths
// engage even on tiny relations). The store must outlive the returned
// relations — their columnar images alias its file mappings.
func persist(t *testing.T, rels map[string]*relation.Relation, segRows int) (map[string]*relation.Relation, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SegmentRows = segRows
	out := make(map[string]*relation.Relation, len(rels))
	for name, rel := range rels {
		if err := st.CreateTable(name, rel); err != nil {
			t.Fatalf("persist %s: %v", name, err)
		}
		loaded, err := st.Load(name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if rel.Len() > 0 && loaded.Segments() == nil {
			t.Fatalf("loaded %s has no segments", name)
		}
		out[name] = loaded
	}
	return out, st
}

// TestDiskVsMemoryDifferential runs the optimizer differential's full
// query corpus against two servers over the same data — one on
// in-memory relations, one on segment-backed relations loaded from an
// on-disk store — and requires identical results. This is the
// disk-serving path's equivalence proof: mmap-backed columnar views,
// segment scans and zone-map pruning must be invisible to every query
// shape.
func TestDiskVsMemoryDifferential(t *testing.T) {
	attrs := []schema.Attr{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	}
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(int64(200 + seed)))
		cfg := randrel.DefaultConfig(attrs...)
		cfg.MaxTuples = 12
		rels := map[string]*relation.Relation{
			"r": randrel.Generate(rng, cfg),
			"s": randrel.Generate(rng, cfg),
			"u": randrel.Generate(rng, cfg),
		}
		disk, st := persist(t, rels, 4)

		mem := newServer(plan.DefaultFlags(), false, rels)
		onDisk := newServer(plan.DefaultFlags(), false, disk)
		for _, q := range sqlish.DiffQueries {
			want, _, err := query(t, mem, q)
			if err != nil {
				t.Fatalf("seed %d: memory %s: %v", seed, q, err)
			}
			got, _, err := query(t, onDisk, q)
			if err != nil {
				t.Fatalf("seed %d: disk %s: %v", seed, q, err)
			}
			if !relation.SetEqual(got, want) {
				onlyG, onlyW := relation.Diff(got, want)
				t.Fatalf("seed %d: disk diverged on %s\nonly disk: %v\nonly memory: %v", seed, q, onlyG, onlyW)
			}
		}
		st.Close()
	}
}

// pruningQueries adds valid-time predicates to the corpus shapes, since
// TS/TE conjuncts are the primary pruning targets of an
// interval-partitioned layout.
var pruningQueries = append([]string{
	"SELECT a, b, Ts, Te FROM r WHERE Ts >= 6",
	"SELECT a, b, Ts, Te FROM r WHERE Te <= 4",
	"SELECT a, b FROM r WHERE Ts BETWEEN 2 AND 7 AND a >= 1",
	"SELECT a, b FROM r WHERE a = 999",
	"SELECT q.a, s.b FROM (SELECT a, b FROM r WHERE Ts >= 5) q JOIN s ON q.a = s.a",
	"SELECT a, Ts, Te FROM ((SELECT a, b FROM r WHERE Ts >= 5) q ALIGN s ON q.a = s.a) x",
}, sqlish.DiffQueries...)

// TestPruningDifferential proves zone-map pruning never changes
// results: the same disk-backed data queried with pruning enabled and
// with Flags.DisablePruning must agree on the whole corpus — while the
// process-wide counters prove pruning actually engaged.
func TestPruningDifferential(t *testing.T) {
	attrs := []schema.Attr{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	}
	prunedBefore := exec.SegmentsPruned()
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(int64(300 + seed)))
		cfg := randrel.DefaultConfig(attrs...)
		cfg.MaxTuples = 16
		rels := map[string]*relation.Relation{
			"r": randrel.Generate(rng, cfg),
			"s": randrel.Generate(rng, cfg),
			"u": randrel.Generate(rng, cfg),
		}
		disk, st := persist(t, rels, 4)

		pruning := newServer(plan.DefaultFlags(), false, disk)
		noPruneFlags := plan.DefaultFlags()
		noPruneFlags.DisablePruning = true
		noPruning := newServer(noPruneFlags, false, disk)
		for _, q := range pruningQueries {
			want, _, err := query(t, noPruning, q)
			if err != nil {
				t.Fatalf("seed %d: pruning-off %s: %v", seed, q, err)
			}
			got, _, err := query(t, pruning, q)
			if err != nil {
				t.Fatalf("seed %d: pruning-on %s: %v", seed, q, err)
			}
			if lit, err := literal(pruning, plan.DefaultFlags(), q); err != nil || !relation.SetEqual(lit, want) {
				t.Fatalf("seed %d: pruning-on %s from its literal text: %v\n%v", seed, q, err, lit)
			}
			if !relation.SetEqual(got, want) {
				onlyG, onlyW := relation.Diff(got, want)
				t.Fatalf("seed %d: pruning changed results of %s\nonly on: %v\nonly off: %v", seed, q, onlyG, onlyW)
			}
		}
		st.Close()
	}
	if exec.SegmentsPruned() == prunedBefore {
		t.Fatal("pruning never engaged across the whole differential — the on-path is not being exercised")
	}
}

// intervalTable builds a relation with n rows at ts=i (duration dur) so
// segment zones partition time predictably.
func intervalTable(n int, dur int64) *relation.Relation {
	sch := schema.MustNew(schema.Attr{Name: "a", Type: value.KindInt})
	rel := relation.New(sch)
	for i := 0; i < n; i++ {
		rel.MustAppend(tuple.Tuple{
			Vals: []value.Value{value.NewInt(int64(i % 7))},
			T:    interval.New(int64(i), int64(i)+dur),
		})
	}
	return rel
}

// TestExplainAnalyzeSegmentCounters is the EXPLAIN ANALYZE regression
// for the pruning counters: a valid-time filter over a 10-segment table
// must report the exact segments scanned vs pruned on its scan node,
// and a time-filtered ALIGN (the acceptance shape) must prune at least
// one segment.
func TestExplainAnalyzeSegmentCounters(t *testing.T) {
	rels := map[string]*relation.Relation{
		"r": intervalTable(100, 3),
		"s": intervalTable(40, 5),
	}
	disk, st := persist(t, rels, 10)
	defer st.Close()
	e := newServer(plan.DefaultFlags(), false, disk)

	// Segments hold rows [10i, 10i+9] with MinTS=10i, MaxTS=10i+9; the
	// filter Ts >= 50 disqualifies segments 0-4 (MaxTS 9..49) exactly.
	_, text, err := query(t, e, "EXPLAIN ANALYZE SELECT a, Ts, Te FROM r WHERE Ts >= 50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "(segments scanned=5 pruned=5)") {
		t.Fatalf("EXPLAIN ANALYZE misreports segment pruning:\n%s", text)
	}
	if !strings.Contains(text, "[prune: TS >= 50]") {
		t.Fatalf("EXPLAIN ANALYZE scan label lacks prune bounds:\n%s", text)
	}

	// The acceptance shape: a valid-time-filtered ALIGN over
	// multi-segment data reports at least one pruned segment.
	_, text, err = query(t, e, "EXPLAIN ANALYZE SELECT a, Ts, Te FROM ((SELECT a FROM r WHERE Ts >= 50) q ALIGN s ON q.a = s.a) x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "segments scanned=5 pruned=5") {
		t.Fatalf("time-filtered ALIGN does not show pruning:\n%s", text)
	}
}
