package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"talign/internal/distsql"
	"talign/internal/expr"
	"talign/internal/oracle"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/storage"
	"talign/internal/value"
)

// shapeTemplates are the shapes of the 25-shape differential corpus
// (internal/distsql, internal/plan) that carry a liftable literal, with
// %[1]s where the varying literal goes (a second literal, where the shape
// has one, stays fixed), plus two shapes mixing the caller's $N with a
// lifted literal.
var shapeTemplates = []struct {
	sql    string
	params []value.Value
}{
	{sql: "SELECT a, b FROM r WHERE a = %[1]s AND b >= 1"},
	{sql: "SELECT a, b, Ts, Te FROM r WHERE a = %[1]s AND 1 = 1"},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a WHERE s.b >= %[1]s AND r.b <= 2"},
	{sql: "SELECT r.a, s.b FROM r LEFT JOIN s ON r.a = s.a WHERE r.b >= %[1]s"},
	{sql: "SELECT r.a, s.b FROM r RIGHT JOIN s ON r.a = s.a AND r.b >= %[1]s WHERE s.b <= 2"},
	{sql: "SELECT r.a ra, s.a sa, u.b ub FROM r JOIN s ON r.a = s.a JOIN u ON s.b = u.b WHERE u.a >= %[1]s"},
	{sql: "SELECT r.b, s.b, u.b FROM r, s, u WHERE r.a = s.a AND s.b = u.b AND u.a = %[1]s"},
	{sql: "SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x WHERE a >= %[1]s"},
	{sql: "SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x WHERE b = %[1]s"},
	{sql: "SELECT a, COUNT(*) c FROM r WHERE b >= %[1]s GROUP BY a HAVING a >= 1"},
	{sql: "SELECT a, b FROM r WHERE a = %[1]s UNION SELECT a, b FROM s WHERE b = 1"},
	{sql: "SELECT DISTINCT a FROM r WHERE b = %[1]s"},
	{sql: "SELECT ABSORB a, b, Ts, Te FROM r WHERE a >= %[1]s"},
	{sql: "WITH w AS (SELECT a, b FROM r WHERE a >= %[1]s) SELECT w1.a, w2.b FROM w w1 JOIN w w2 ON w1.a = w2.a"},
	{sql: "SELECT a, b FROM r WHERE a BETWEEN 0 AND %[1]s ORDER BY a, b"},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.b = s.b WHERE r.a >= %[1]s"},
	{sql: "SELECT COUNT(*) c FROM r WHERE b >= %[1]s"},
	{sql: "SELECT a, b, Ts, Te FROM r WHERE Ts >= %[1]s AND a >= 0"},
	{sql: "SELECT a, Ts, Te FROM ((SELECT a, b FROM r WHERE Te <= %[1]s) q ALIGN s ON q.a = s.a AND s.b < 2) x"},
	{sql: "SELECT a, b FROM r WHERE a >= $1 AND b <= %[1]s", params: []value.Value{value.NewInt(0)}},
	{sql: "SELECT r.a, s.b FROM r JOIN s ON r.a = s.a AND s.b <> %[1]s WHERE s.b >= $1", params: []value.Value{value.NewInt(1)}},
	// Must not lift: these literals are matched as text or shape the plan.
	{sql: "SELECT a > %[1]s g, COUNT(*) c FROM r GROUP BY a > %[1]s"},
	{sql: "SELECT a, COUNT(*) c FROM r GROUP BY a HAVING COUNT(*) > %[1]s"},
	{sql: "SELECT a, b FROM r WHERE a >= 0 ORDER BY a, b, Ts LIMIT %[1]s"},
	{sql: "SELECT a + %[1]s x, b FROM r WHERE b >= 0 ORDER BY 1"},
}

// shapeLiterals are the values each shape runs with: ints, a float, a
// string (the kind changes, so the shape does), negatives, and values far
// outside the data's domain — 1000000 prunes every segment of an
// equality or >= on the segment store.
var shapeLiterals = []string{"0", "1", "2", "-1", "1.5", "'x'", "1000000", "-0.5", "3", "-1000000"}

// shapeRels builds the corpus relations of one seed.
func shapeRels(seed int) map[string]*relation.Relation {
	attrs := []schema.Attr{{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt}}
	cfg := randrel.DefaultConfig(attrs...)
	cfg.MaxTuples = 14
	rng := rand.New(rand.NewSource(int64(1600 + seed)))
	rels := map[string]*relation.Relation{}
	for _, name := range []string{"r", "s", "u"} {
		rels[name] = randrel.Generate(rng, cfg)
	}
	return rels
}

// single is a single-node server holding rels.
func single(rels map[string]*relation.Relation) *server.Server {
	srv := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
	for name, rel := range rels {
		srv.Catalog().Register(name, rel)
	}
	return srv
}

// coordinator is a coordinator's server over n in-process workers, with
// rels distributed across them and analyzed.
func coordinator(t *testing.T, n int, rels map[string]*relation.Relation) *server.Server {
	t.Helper()
	flags := plan.DefaultFlags()
	var topo distsql.Topology
	for i := 0; i < n; i++ {
		hs := httptest.NewServer(distsql.Handler(server.New(server.Config{Flags: flags, MaxDOP: 16})))
		t.Cleanup(hs.Close)
		topo.Workers = append(topo.Workers, distsql.Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
	}
	csrv := server.New(server.Config{Flags: flags, MaxDOP: 16})
	coord := distsql.New(csrv, topo, flags, nil)
	coord.Attach()
	for name, rel := range rels {
		if err := coord.DistributeTable(t.Context(), name, rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.AnalyzeWorkers(t.Context()); err != nil {
		t.Fatal(err)
	}
	return csrv
}

// TestParamColumnTypes: a result column that is exactly $N reports the
// bound value's kind wherever the statement executes — POST /query and
// the stream's schema frame, locally and through a coordinator — and ω in
// the prepared schema, where no value is bound. The column may reach the
// result through a subquery and a join.
func TestParamColumnTypes(t *testing.T) {
	stmts := []string{
		"SELECT $1 x, a FROM r",
		"SELECT q.x, y.a FROM (SELECT $1 x, a FROM r) q JOIN r y ON q.a = y.a",
	}
	for tag, srv := range map[string]*server.Server{"local": single(shapeRels(0)), "coordinator": coordinator(t, 2, shapeRels(0))} {
		for i, sql := range stmts {
			var got [][]string
			for _, path := range []string{"/query", "/query/stream", "/prepare"} {
				body, _ := json.Marshal(map[string]any{"name": fmt.Sprint("q", i), "sql": sql, "params": []int{7}})
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
				var first struct{ Types []string } // the stream's first frame is its schema
				if err := json.NewDecoder(rec.Body).Decode(&first); err != nil {
					t.Fatal(err)
				}
				got = append(got, first.Types)
			}
			if s := fmt.Sprint(got); s != "[[int int int int] [int int int int] [null int int int]]" {
				t.Errorf("%s: %s: the types of /query, /query/stream and /prepare are %s", tag, sql, s)
			}
		}
	}
}

// shapeCase is one statement of the differential with its reference
// outcome: the rows (or failure) of a fresh, un-lifted sqlish.Prepare of
// the same text over the same relations.
type shapeCase struct {
	sql    string
	params []value.Value
	want   [][]byte
	fails  bool
}

// shapeCases expands the templates over the literals and computes every
// reference outcome.
func shapeCases(t *testing.T, rels map[string]*relation.Relation) []shapeCase {
	t.Helper()
	cat := sqlish.MapCatalog{}
	for name, rel := range rels {
		cat.Register(name, rel)
	}
	var out []shapeCase
	for _, tpl := range shapeTemplates {
		for _, lit := range shapeLiterals {
			c := shapeCase{sql: fmt.Sprintf(tpl.sql, lit), params: tpl.params}
			prep, err := sqlish.Prepare(c.sql, cat, plan.DefaultFlags())
			if err == nil {
				var rel *relation.Relation
				if rel, err = prep.Execute(c.params...); err == nil {
					c.want = sqltest.Keys(rel)
				}
			}
			c.fails = err != nil
			out = append(out, c)
		}
	}
	return out
}

// runShapeCases drives every case through srv from `clients` concurrent
// goroutines (each in its own order) and compares with the references.
func runShapeCases(t *testing.T, tag string, srv *server.Server, cases []shapeCase, clients int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(cases))
			for _, i := range order {
				c := cases[i]
				res, err := sqltest.Run(context.Background(), srv, "", "", c.sql, c.params, 0)
				if (err != nil) != c.fails {
					t.Errorf("%s: %q: server error %v, un-lifted reference failed=%v", tag, c.sql, err, c.fails)
					continue
				}
				if err != nil {
					continue
				}
				got := sqltest.Keys(res.Rel)
				if len(got) != len(c.want) {
					t.Errorf("%s: %q: %d rows, reference has %d", tag, c.sql, len(got), len(c.want))
					continue
				}
				for k := range got {
					if !bytes.Equal(got[k], c.want[k]) {
						t.Errorf("%s: %q diverged from the un-lifted reference at sorted row %d", tag, c.sql, k)
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShapeDifferential is the statement-shape differential: every corpus
// shape with a liftable literal, executed with ten literal values through
// ONE warm server — so all but the first statement of a shape and kind
// bind into a plan built for other values — must return exactly what a
// fresh un-lifted sqlish.Prepare of the same text returns, from
// concurrent clients, over memory, over a segment store with zone-map
// pruning, and through a coordinator over 2 workers. (The other
// differentials chain that reference to internal/oracle; the two
// selection shapes are also checked against the oracle here directly.)
func TestShapeDifferential(t *testing.T) {
	for seed := 0; seed < 3; seed++ {
		rels := shapeRels(seed)
		cases := shapeCases(t, rels)

		mem := single(rels)
		mem.AnalyzeAll()
		runShapeCases(t, fmt.Sprintf("seed %d memory", seed), mem, cases, 4)
		// Lifting is what is under test: the liftable statements must have
		// shared plans (one per shape and literal kind, not one per text).
		if st := mem.CacheStats(); int(st.Plans) > len(cases)/2 {
			t.Errorf("seed %d: %d plans for %d statements: shapes are not being shared", seed, st.Plans, len(cases))
		}

		store, err := storage.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		store.SegmentRows = 4
		for name, rel := range rels {
			if err := store.CreateTable(name, rel); err != nil {
				t.Fatal(err)
			}
		}
		disk := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
		if _, err := disk.UseStore(store); err != nil {
			t.Fatal(err)
		}
		disk.AnalyzeAll()
		runShapeCases(t, fmt.Sprintf("seed %d segments", seed), disk, cases, 4)
		store.Close()

		csrv := coordinator(t, 2, rels)
		runShapeCases(t, fmt.Sprintf("seed %d 2 workers", seed), csrv, cases, 2)

		// Oracle: the selection shapes straight from the definitions.
		for _, lit := range []int64{0, 1, 2, -1, 3, 1000000} {
			for _, sel := range []struct {
				sql  string
				pred expr.Expr
			}{
				{fmt.Sprintf("SELECT a, b FROM r WHERE a = %d AND b >= 1", lit),
					expr.And(expr.Eq(expr.C("a"), expr.Int(lit)), expr.Ge(expr.C("b"), expr.Int(1)))},
				{fmt.Sprintf("SELECT a, b FROM r WHERE a BETWEEN 0 AND %d", lit),
					expr.Between{X: expr.C("a"), Lo: expr.Int(0), Hi: expr.Int(lit)}},
			} {
				want, err := oracle.Selection(rels["r"], sel.pred)
				if err != nil {
					t.Fatal(err)
				}
				for tag, srv := range map[string]*server.Server{"memory": mem, "2 workers": csrv} {
					res, err := sqltest.Run(t.Context(), srv, "", "", sel.sql, nil, 0)
					if err != nil {
						t.Fatalf("%s: %s: %v", tag, sel.sql, err)
					}
					if !relation.SetEqual(res.Rel, want) {
						t.Errorf("seed %d %s: %s != oracle.Selection", seed, tag, sel.sql)
					}
				}
			}
		}
	}
}

// TestShapeKeepsCallerNumbering: hidden slots stay invisible — a prepared
// statement with a lifted literal reports the caller's parameter count,
// and arity errors speak the caller's numbering, by name and ad hoc.
func TestShapeKeepsCallerNumbering(t *testing.T) {
	srv := server.New(server.Config{Flags: plan.DefaultFlags()})
	for name, rel := range shapeRels(0) {
		srv.Catalog().Register(name, rel)
	}
	prep, err := srv.Prepare("s", "q", "SELECT a, b FROM r WHERE a >= $1 AND b <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if prep.NumParams != 1 {
		t.Errorf("NumParams = %d, want 1", prep.NumParams)
	}
	for _, params := range [][]value.Value{nil, {value.NewInt(0), value.NewInt(1)}} {
		_, err := sqltest.Run(t.Context(), srv, "s", "q", "", params, 0)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wants 1 parameter(s), got %d", len(params))) {
			t.Errorf("by name with %d params: error %v", len(params), err)
		}
		_, err = sqltest.Run(t.Context(), srv, "", "", "SELECT a, b FROM r WHERE a >= $1 AND b <= 2", params, 0)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wants 1 parameter(s), got %d", len(params))) {
			t.Errorf("ad hoc with %d params: error %v", len(params), err)
		}
	}
	res, err := sqltest.Run(t.Context(), srv, "s", "q", "", []value.Value{value.NewInt(0)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sqltest.MustRun(t, srv, "SELECT a, b FROM r WHERE a >= 0 AND b <= 2")
	if !relation.SetEqual(res.Rel, ref.Rel) {
		t.Errorf("prepared statement with a lifted literal diverged from its literal text")
	}
}
