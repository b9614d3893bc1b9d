package server

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/sqltest"
	"talign/internal/storage"
	"talign/internal/value"
)

// fragmentRunner runs every statement as a worker's fragment under subst.
type fragmentRunner struct {
	s     *Server
	subst map[string]string
}

func (f fragmentRunner) StreamBatch(ctx context.Context, sessionID, stmtName, sql string, params []value.Value, batch int) (*RowStream, error) {
	return f.s.streamBatch(ctx, sessionID, stmtName, sql, params, batch, fragment{subst: f.subst})
}

// rebindRel is a random two-column relation of one seed.
func rebindRel(seed int64) *relation.Relation {
	cfg := randrel.DefaultConfig(schema.Attr{Name: "a", Type: value.KindInt}, schema.Attr{Name: "b", Type: value.KindInt})
	cfg.MaxTuples = 14
	return randrel.Generate(rand.New(rand.NewSource(seed)), cfg)
}

// rebindQueries read r through every access a rebound scan must serve:
// the image, the group index kept with it (ALIGN, NORMALIZE, the sweep
// aggregation), a join's build side, a filter under a parameter, and a
// valid-time filter that prunes a segment-backed r.
var rebindQueries = []struct {
	sql    string
	params []value.Value
}{
	{sql: "SELECT a, b, Ts, Te FROM (r x ALIGN r y ON x.b = y.b) z"},
	{sql: "SELECT a, b, Ts, Te FROM (r x NORMALIZE r y USING (b)) z"},
	{sql: "SELECT b, COUNT(*) c, Ts, Te FROM (r x NORMALIZE r y USING (b)) z GROUP BY b, Ts, Te"},
	{sql: "SELECT x.a, y.b FROM r x JOIN r y ON x.b = y.b"},
	{sql: "SELECT a, b FROM r WHERE a >= $1", params: []value.Value{value.NewInt(1)}},
	{sql: "SELECT a, b, Ts, Te FROM r WHERE Ts >= 3"},
}

// rebindWorkers returns a worker holding shard as r in memory and one
// holding it in a segment store of 4-row segments, whose scans of r under
// a valid-time filter are segment scans.
func rebindWorkers(t *testing.T, shard *relation.Relation) map[string]*Server {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.SegmentRows = 4
	if err := store.CreateTable("r", shard); err != nil {
		t.Fatal(err)
	}
	mem, seg := New(Config{Flags: plan.DefaultFlags()}), New(Config{Flags: plan.DefaultFlags()})
	mem.Catalog().Register("r", shard)
	if _, err := seg.UseStore(store); err != nil {
		t.Fatal(err)
	}
	return map[string]*Server{"memory": mem, "segments": seg}
}

// TestRebindAlternates runs each query on one worker, alternating its own
// r with a staged relation of other rows bound in r's place: the shape is
// planned once and its pipeline re-opened every time, and every answer is
// the single node's over the rows it read. A scan that took its image or
// its group index at Build would answer the first execution's rows at the
// second. With r in a segment store the pruned scan is a segment scan,
// which must read the staged relation's one image.
func TestRebindAlternates(t *testing.T) {
	shard, temp := rebindRel(1), rebindRel(2)
	ref := func(rel *relation.Relation) *Server {
		s := New(Config{Flags: plan.DefaultFlags()})
		s.Catalog().Register("r", rel)
		return s
	}
	refShard, refTemp := ref(shard), ref(temp)
	for backing, w := range rebindWorkers(t, shard) {
		w.Catalog().Register("__rp1_r", temp)
		staged := fragmentRunner{w, map[string]string{"r": "__rp1_r"}}
		for _, q := range rebindQueries {
			plans, reused := w.CacheStats().Plans, w.pipelinesReused.Load()
			for i := range 6 {
				var got, want sqltest.Result
				var gerr, werr error
				if i%2 == 0 {
					got, gerr = sqltest.Run(t.Context(), w, "", "", q.sql, q.params, 0)
					want, werr = sqltest.Run(t.Context(), refShard, "", "", q.sql, q.params, 0)
				} else {
					got, gerr = sqltest.Run(t.Context(), staged, "", "", q.sql, q.params, 0)
					want, werr = sqltest.Run(t.Context(), refTemp, "", "", q.sql, q.params, 0)
				}
				if gerr != nil || werr != nil {
					t.Fatalf("%s: %q execution %d: %v / reference %v", backing, q.sql, i, gerr, werr)
				}
				if !slices.EqualFunc(sqltest.Keys(got.Rel), sqltest.Keys(want.Rel), bytes.Equal) {
					t.Fatalf("%s: %q execution %d (staged: %v) answered\n%s\nthe single node\n%s", backing, q.sql, i, i%2 == 1, got.Rel, want.Rel)
				}
			}
			if p, r := w.CacheStats().Plans-plans, w.pipelinesReused.Load()-reused; p != 1 || r != 5 {
				t.Errorf("%s: %q: %d plans and %d re-opens over 6 executions, want 1 and 5", backing, q.sql, p, r)
			}
		}
		if backing == "segments" {
			if text := sqltest.MustRun(t, w, "EXPLAIN "+rebindQueries[len(rebindQueries)-1].sql).Plan; !strings.Contains(text, "prune:") {
				t.Errorf("the segment-backed scan does not prune:\n%s", text)
			}
		}
	}
}

// TestRebindRefused: a staged relation that is missing, or whose columns
// are not the table's, is a request error, and so is a substitution on an
// EXPLAIN, whose plan reads the worker's own table.
func TestRebindRefused(t *testing.T) {
	w := New(Config{Flags: plan.DefaultFlags()})
	w.Catalog().Register("r", rebindRel(1))
	w.Catalog().Register("__rp1_r", relation.NewBuilder("a int", "c int").Row(0, 1, int64(1), int64(2)).MustBuild())
	w.Catalog().Register("__rp2_r", relation.NewBuilder("a int", "b string").Row(0, 1, int64(1), "x").MustBuild())
	for _, tc := range []struct{ sql, staged, want string }{
		{"SELECT a FROM r", "__rp9_r", `no staged relation "__rp9_r" of r's columns`},
		{"SELECT a FROM r", "__rp1_r", `no staged relation "__rp1_r" of r's columns`},
		{"SELECT a FROM r", "__rp2_r", `no staged relation "__rp2_r" of r's columns`},
		{"EXPLAIN SELECT a FROM r", "__rp1_r", "not an EXPLAIN"},
	} {
		_, err := sqltest.Run(t.Context(), fragmentRunner{w, map[string]string{"r": tc.staged}}, "", "", tc.sql, nil, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) || errorCode(err) != "request" {
			t.Errorf("%s over %s: %v; want a request error saying %q", tc.sql, tc.staged, err, tc.want)
		}
	}
}

// stageRows registers a staged relation of 20 000 rows as __rp1_r and
// returns weak pointers to it and to its rows' storage, arrays large
// enough to be heap objects of their own. It is not inlined, so that no
// frame of its caller holds them.
//
//go:noinline
func stageRows(w *Server) (weak.Pointer[relation.Relation], weak.Pointer[int64]) {
	b := relation.NewBuilder("a int", "b int")
	for i := range int64(20000) {
		b.Row(i, i+3, i%7, i)
	}
	temp := b.MustBuild()
	w.Catalog().Register("__rp1_r", temp)
	return weak.Make(temp), weak.Make(&temp.Columnar().Cols[0].Ints[0])
}

// TestIdlePipelinePinsNoStagedRelation: once its execution is over and
// it is unstaged, a staged relation is garbage, its rows' storage
// included, although the worker keeps the plans and the idle pipelines
// that read it — segment scans included. A scan's view of its last batch
// aliases that storage.
func TestIdlePipelinePinsNoStagedRelation(t *testing.T) {
	for backing, w := range rebindWorkers(t, rebindRel(1)) {
		wrel, wrows := stageRows(w)
		for _, q := range rebindQueries {
			if _, err := sqltest.Run(t.Context(), fragmentRunner{w, map[string]string{"r": "__rp1_r"}}, "", "", q.sql, q.params, 0); err != nil {
				t.Fatalf("%s: %s: %v", backing, q.sql, err)
			}
		}
		w.Catalog().Drop("__rp1_r")
		runtime.GC()
		if wrel.Value() != nil || wrows.Value() != nil {
			t.Fatalf("%s: the unstaged relation (%v) or its rows (%v) are still reachable", backing, wrel.Value() != nil, wrows.Value() != nil)
		}
		if n := w.CacheStats().Size; n != len(rebindQueries) {
			t.Fatalf("%s: the worker caches %d plans, want %d", backing, n, len(rebindQueries))
		}
	}
}
