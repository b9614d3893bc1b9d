package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"talign/internal/csvio"
	"talign/internal/distsql"
	"talign/internal/expr"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/storage"
	"talign/internal/value"
)

// churnVersions is how many distinct row sets the churned table s cycles
// through; a result is checked against the versions that were registered
// at some point while its query ran.
const churnVersions = 4

// churnStmt is one statement of the churn differential with its reference
// rows under every version of s.
type churnStmt struct {
	sql    string
	params []value.Value
	shape  string // its plan-cache shape key
	readsS bool
	want   [churnVersions][][]byte
}

// churnCorpus is the 25-shape corpus at two literal values plus one plain
// selection over s, with references: a fresh un-lifted sqlish.Prepare of
// the same text over (r, s_v, u) for the corpus shapes (the reference the
// other differentials chain to internal/oracle), oracle.Selection over
// s_v directly for the selection.
func churnCorpus(t *testing.T, rels map[string]*relation.Relation, sv [churnVersions]*relation.Relation) (stmts []*churnStmt, shapes int) {
	t.Helper()
	keys := map[string]bool{}
	add := func(c *churnStmt) {
		st, err := sqlish.ParseLifted(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		c.shape = st.ShapeKey()
		keys[c.shape] = true
		stmts = append(stmts, c)
	}
	for _, tpl := range shapeTemplates {
		for _, lit := range []string{"1", "2"} {
			c := &churnStmt{sql: fmt.Sprintf(tpl.sql, lit), params: tpl.params}
			for v, s := range sv {
				cat := sqlish.MapCatalog{}
				cat.Register("r", rels["r"])
				cat.Register("s", s)
				cat.Register("u", rels["u"])
				prep, err := sqlish.Prepare(c.sql, cat, plan.DefaultFlags())
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				rel, err := prep.Execute(c.params...)
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				c.want[v], c.readsS = sqltest.Keys(rel), prep.DependsOn("s")
			}
			add(c)
		}
	}
	sel := &churnStmt{sql: "SELECT a, b FROM s WHERE a >= 1", readsS: true}
	for v, s := range sv {
		rel, err := oracle.Selection(s, expr.Ge(expr.C("a"), expr.Int(1)))
		if err != nil {
			t.Fatal(err)
		}
		sel.want[v] = sqltest.Keys(rel)
	}
	add(sel)
	return stmts, len(keys)
}

// churnTarget is one deployment under churn.
type churnTarget struct {
	name  string
	front *server.Server
	// cache reads the counters of the cache that plans the corpus: the
	// server's own, or the coordinator's distributed one.
	cache func() server.CacheStats
	// restage replaces s with rel.
	restage func(rel *relation.Relation) error
	// atomicRestage: restage may run beside readers of s. A coordinator
	// replaces the shards worker by worker, so a concurrent reader can see
	// a mix of two versions — the staging protocol, not the cache; there s
	// is only restaged between passes.
	atomicRestage bool
	// analyzeReplans: ANALYZE s makes the plans over s stale (a
	// distributed plan is a strategy choice over schemas; it is not).
	analyzeReplans bool
	// sized: cache reports Size.
	sized bool
	// validationOnly: the eager purge is off (server.DisablePurge), so
	// nothing bounds the cache but the LRU and nothing is invalidated
	// before its next lookup.
	validationOnly bool
}

// TestChurnDifferential runs reads beside catalog churn and holds them to
// three things: every result equals the reference FOR THE SNAPSHOT IT RAN
// ON; churn on a table a plan does not read costs it nothing; churn on a
// table it reads re-plans it exactly once.
//
// Phase 1: 4 clients loop over the corpus while one goroutine runs 50
// cycles of CREATE TABLE c FROM CSV / SELECT over c / DROP TABLE c. The
// cache plans c's statement once a cycle and nothing else: no corpus
// shape reads c. Phase 2: the same with ANALYZE s and a re-registration
// of s with other rows mixed into the cycles; a result must equal the
// reference of a version of s that was registered at some point between
// the query's start and its end, so a plan that outlives its relation —
// the rows of the version before — fails. Throughout, the cache holds at
// most one plan per shape (x 1 flags). Phase 3, single-threaded: after
// ANALYZE s and after re-registering s, one pass over the corpus plans
// each shape that reads s exactly once and no other; the next pass plans
// nothing.
//
// It runs over memory, over a segment store, over memory with the eager
// purge switched off (validation alone must then keep every result
// right), and through a coordinator over 2 in-process workers.
//
// A deliberately broken validator fails it in the purge-off run, where
// nothing else stands between a changed table and its plans (with the
// purge on, the name-scoped purge removes the same plans first, and only
// a plan built while its table changed depends on validation). Tried on
// Snapshot.Current: ignoring d.Stats fails "phase 3 after ANALYZE s: 0
// plans built, want 12"; ignoring d.Rel fails "phase 1: 1 plans built
// across 50 create/drop cycles of c, want 50" (the plan over the first c
// keeps being served) and, in phases 2 and 3, "result matches no version
// of s registered while it ran" for the shapes that read s — a stale
// plan scans the old relation.
func TestChurnDifferential(t *testing.T) {
	rels := shapeRels(1)
	var sv [churnVersions]*relation.Relation
	sv[0] = rels["s"]
	for v := 1; v < churnVersions; v++ {
		sv[v] = shapeRels(10 + v)["s"]
	}
	corpus, shapes := churnCorpus(t, rels, sv)
	csvPath := filepath.Join(t.TempDir(), "c.csv")
	if err := csvio.WriteFile(csvPath, rels["u"]); err != nil {
		t.Fatal(err)
	}

	for _, tgt := range churnTargets(t, rels) {
		query := func(sql string, params []value.Value) sqltest.Result {
			t.Helper()
			res, err := sqltest.Run(context.Background(), tgt.front, "", "", sql, params, 0)
			if err != nil {
				t.Fatalf("%s: %s: %v", tgt.name, sql, err)
			}
			return res
		}
		// started counts re-registrations of s begun, done those completed;
		// version v of s holds the rows sv[v%churnVersions].
		var started, done atomic.Int64
		check := func(c *churnStmt, phase string) {
			lo := done.Load()
			res, err := sqltest.Run(context.Background(), tgt.front, "", "", c.sql, c.params, 0)
			hi := started.Load()
			if err != nil {
				t.Errorf("%s %s: %s: %v", tgt.name, phase, c.sql, err)
				return
			}
			got := sqltest.Keys(res.Rel)
			for v := lo; v <= hi; v++ {
				if slices.EqualFunc(got, c.want[v%churnVersions], bytes.Equal) {
					return
				}
			}
			t.Errorf("%s %s: %s: result matches no version of s registered while it ran (%d..%d)", tgt.name, phase, c.sql, lo, hi)
		}
		checkSize := func(phase string) {
			// One plan per corpus shape, plus c's while it exists.
			if st := tgt.cache(); tgt.sized && !tgt.validationOnly && st.Size > shapes+1 {
				t.Errorf("%s %s: cache holds %d plans for %d shapes", tgt.name, phase, st.Size, shapes)
			}
		}
		// churn runs n cycles beside 4 corpus clients.
		churn := func(phase string, n int, withS bool) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						for _, i := range rng.Perm(len(corpus)) {
							select {
							case <-stop:
								return
							default:
							}
							check(corpus[i], phase)
						}
						checkSize(phase)
					}
				}(g)
			}
			for cycle := 0; cycle < n; cycle++ {
				query(fmt.Sprintf("CREATE TABLE c FROM CSV '%s'", csvPath), nil)
				query("SELECT a, b FROM c", nil)
				query("DROP TABLE c", nil)
				if withS && cycle%5 == 1 {
					query("ANALYZE s", nil)
				}
				if withS && tgt.atomicRestage && cycle%5 == 3 {
					v := started.Add(1)
					if err := tgt.restage(sv[v%churnVersions].Clone()); err != nil {
						t.Error(err)
					}
					done.Add(1)
				}
			}
			close(stop)
			wg.Wait()
		}

		for _, c := range corpus {
			check(c, "warm-up")
		}
		before := tgt.cache()
		if int(before.Plans) != shapes || tgt.sized && before.Size != shapes {
			t.Errorf("%s warm-up: %+v, want %d plans for %d shapes", tgt.name, before, shapes, shapes)
		}

		churn("phase 1", 50, false)
		after := tgt.cache()
		if after.Plans-before.Plans != 50 {
			t.Errorf("%s phase 1: %d plans built across 50 create/drop cycles of c, want 50 (c's own)", tgt.name, after.Plans-before.Plans)
		}
		if !tgt.validationOnly && (after.Invalidated-before.Invalidated != 50 || after.Evictions != 0 || tgt.sized && after.Size != shapes) {
			t.Errorf("%s phase 1: %+v after, %+v before: want 50 invalidated (c's own), no evictions, size %d", tgt.name, after, before, shapes)
		}

		churn("phase 2", 20, true)

		readS := map[string]bool{}
		for _, c := range corpus {
			if c.readsS {
				readS[c.shape] = true
			}
		}
		// pass runs the corpus once and counts the plans it cost (want < 0:
		// whatever phase 2's last change left unplanned).
		pass := func(when string, want int) {
			t.Helper()
			before := tgt.cache().Plans
			for _, c := range corpus {
				check(c, "phase 3")
			}
			if built := int(tgt.cache().Plans - before); want >= 0 && built != want {
				t.Errorf("%s phase 3 %s: %d plans built, want %d", tgt.name, when, built, want)
			}
			checkSize("phase 3")
		}
		pass("settling", -1)
		pass("settled", 0)
		query("ANALYZE s", nil)
		if tgt.analyzeReplans {
			pass("after ANALYZE s", len(readS))
		}
		pass("after ANALYZE s, again", 0)
		v := started.Add(1)
		if err := tgt.restage(sv[v%churnVersions].Clone()); err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		pass("after re-registering s", len(readS))
		pass("after re-registering s, again", 0)
	}
}

// churnTargets builds the deployments of the churn differential, each
// holding r, s and u, analyzed.
func churnTargets(t *testing.T, rels map[string]*relation.Relation) []churnTarget {
	t.Helper()
	local := func(name string, st *storage.Store) churnTarget {
		srv := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
		if st != nil {
			st.SegmentRows = 4
			for name, rel := range rels {
				if err := st.CreateTable(name, rel); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := srv.UseStore(st); err != nil {
				t.Fatal(err)
			}
		} else {
			for name, rel := range rels {
				srv.Catalog().Register(name, rel)
			}
		}
		srv.AnalyzeAll()
		return churnTarget{
			name: name, front: srv, cache: srv.CacheStats, atomicRestage: true, analyzeReplans: true, sized: true,
			restage: func(rel *relation.Relation) error { srv.Catalog().Register("s", rel); return nil },
		}
	}
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	unpurged := local("memory, validation only", nil)
	unpurged.front.DisablePurge()
	unpurged.validationOnly = true

	flags := plan.DefaultFlags()
	var topo distsql.Topology
	for i := 0; i < 2; i++ {
		w := server.New(server.Config{Flags: flags, MaxDOP: 16})
		hs := httptest.NewServer(distsql.Handler(w))
		t.Cleanup(hs.Close)
		topo.Workers = append(topo.Workers, distsql.Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	csrv := server.New(server.Config{Flags: flags, MaxDOP: 16})
	coord := distsql.New(csrv, topo, flags, nil)
	coord.Attach()
	for name, rel := range rels {
		if err := coord.DistributeTable(context.Background(), name, rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.AnalyzeWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	cluster := churnTarget{
		name: "2 workers", front: csrv,
		cache: func() server.CacheStats {
			var st server.CacheStats
			for _, m := range coord.DistMetrics() {
				switch m.Name {
				case "talignd_dist_plan_cache_misses_total":
					st.Plans = m.Value // every miss builds one distributed plan
				case "talignd_dist_plan_cache_invalidated_total":
					st.Invalidated = m.Value
				}
			}
			return st
		},
		restage: func(rel *relation.Relation) error {
			return coord.DistributeTable(context.Background(), "s", rel)
		},
	}
	return []churnTarget{local("memory", nil), local("segments", store), unpurged, cluster}
}
