package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/exec"
	"talign/internal/faultinject"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/sqltest"
	"talign/internal/storage"
	"talign/internal/value"
)

// reuseLiterals rotate through every shape of the corpus: each is a
// statement the warm server has not seen, on a shape it has — except 1.5,
// whose kind makes it a shape of its own.
var reuseLiterals = []string{"0", "2", "1.5", "1"}

// TestReuseDifferential runs the 25-shape corpus, each shape four times
// with a rotating literal, through ONE warm server — where every
// execution after a shape's first re-opens the pipeline that one built —
// and through a server started for that execution alone: same outcome,
// same rows, over memory and over a segment store (whose scans prune at
// Open, under the re-bound values).
func TestReuseDifferential(t *testing.T) {
	rels := shapeRels(7)
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SegmentRows = 4
	for name, rel := range rels {
		if err := store.CreateTable(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	for _, backing := range []string{"memory", "segments"} {
		start := func() *server.Server {
			srv := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
			if backing == "segments" {
				if _, err := srv.UseStore(store); err != nil {
					t.Fatal(err)
				}
			} else {
				for name, rel := range rels {
					srv.Catalog().Register(name, rel)
				}
			}
			srv.AnalyzeAll()
			return srv
		}
		warm := start()
		for _, tpl := range shapeTemplates {
			for _, lit := range reuseLiterals {
				sql := fmt.Sprintf(tpl.sql, lit)
				got, gerr := sqltest.Run(context.Background(), warm, "", "", sql, tpl.params, 0)
				want, werr := sqltest.Run(context.Background(), start(), "", "", sql, tpl.params, 0)
				if (gerr != nil) != (werr != nil) {
					t.Errorf("%s: %q: warm server error %v, cold server error %v", backing, sql, gerr, werr)
					continue
				}
				if gerr == nil && !slices.EqualFunc(sqltest.Keys(got.Rel), sqltest.Keys(want.Rel), bytes.Equal) {
					t.Errorf("%s: %q: a re-opened pipeline returned\n%s\na server started for the statement\n%s", backing, sql, got.Rel, want.Rel)
				}
			}
		}
		// 18 of the 25 shapes lift their literal and run columnar from root
		// to scans (the others sort, deduplicate or share a WITH on the row
		// side, or keep the literal in their text): their three int
		// literals are one pipeline, opened three times.
		if built, reused := warm.PipelineStats(); reused < 2*18 {
			t.Errorf("%s: %d pipelines built, %d reused; want at least 36 reused", backing, built, reused)
		}
	}
}

// reuseServer serves big(a, b): 64 rows of each a in [0, 9), b distinct
// within an a, so that a = k has 64 rows that say which k they belong to.
func reuseServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	b := relation.NewBuilder("a int", "b int")
	for i := 0; i < 9*64; i++ {
		b.Row(int64(i%7), int64(i%7)+10, i%9, i)
	}
	cfg.Flags = plan.DefaultFlags()
	cfg.Flags.BatchSize = 8
	srv := server.New(cfg)
	srv.Catalog().Register("big", b.MustBuild())
	srv.AnalyzeAll()
	return srv
}

// TestReuseNoCrossTalk: eight clients hammer one shape, each with its own
// literal, while a ninth keeps cancelling executions of the same shape
// mid-stream. Every row a client sees belongs to its own literal, every
// count is right, and pipelines change hands all the while (run with
// -race).
func TestReuseNoCrossTalk(t *testing.T) {
	srv := reuseServer(t, server.Config{MaxDOP: 16})
	const rounds = 150
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT a, b FROM big WHERE a = %d AND b >= 0", g)
			for i := 0; i < rounds; i++ {
				rs, err := srv.StreamBatch(context.Background(), "", "", sql, nil, 0)
				if err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				rows := 0
				for {
					b, err := rs.NextBatch()
					if err != nil {
						t.Errorf("client %d: %v", g, err)
						break
					}
					if b == nil {
						break
					}
					for k := 0; k < b.NumRows(); k++ {
						if a := b.Cols[0].Int(b.RowAt(k)); a != int64(g) {
							t.Errorf("client %d read a row of a = %d", g, a)
						}
					}
					rows += b.NumRows()
				}
				rs.Close()
				if rows != 64 {
					t.Errorf("client %d, execution %d: %d rows, want 64", g, i, rows)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			rs, err := srv.StreamBatch(ctx, "", "", "SELECT a, b FROM big WHERE a = 8 AND b >= 0", nil, 0)
			if err != nil {
				t.Errorf("canceller: %v", err)
				cancel()
				return
			}
			if _, err := rs.NextBatch(); err != nil {
				t.Errorf("canceller: first batch: %v", err)
			}
			cancel()
			for err == nil {
				var b any
				if b, err = rs.NextBatch(); b == nil {
					break
				}
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("canceller: %v, want context.Canceled", err)
			}
			rs.Close()
		}
	}()
	wg.Wait()
	// Nine clients share one plan, which keeps an idle pipeline per
	// processor: an execution that finds none builds its own.
	built, reused := srv.PipelineStats()
	if built+reused != 9*rounds || reused < built {
		t.Errorf("%d pipelines built, %d reused over %d executions", built, reused, 9*rounds)
	}
}

// TestFailedPipelineNotReused: an execution that ends in a recovered
// panic, a cancellation or a budget abort leaves its pipeline to the
// collector — the next execution of the shape builds one, and returns the
// right rows — while the executor's panic and cancel counters move once
// per failure.
func TestFailedPipelineNotReused(t *testing.T) {
	defer faultinject.Reset()
	srv := reuseServer(t, server.Config{MaxDOP: 16, MaxRows: 100})
	run := func(ctx context.Context, lit int) (int, error) {
		rs, err := srv.StreamBatch(ctx, "", "", fmt.Sprintf("SELECT a, b FROM big WHERE a >= %d AND b >= 0", lit), nil, 0)
		if err != nil {
			return 0, err
		}
		defer rs.Close()
		rows := 0
		for {
			b, err := rs.NextBatch()
			if err != nil || b == nil {
				return rows, err
			}
			rows += b.NumRows()
		}
	}
	clean := func(after string, wantReused bool) {
		t.Helper()
		_, reusedBefore := srv.PipelineStats()
		if rows, err := run(context.Background(), 8); err != nil || rows != 64 {
			t.Fatalf("after %s: %d rows, %v; want 64", after, rows, err)
		}
		if _, reused := srv.PipelineStats(); (reused > reusedBefore) != wantReused {
			t.Fatalf("after %s: the next execution reused a pipeline = %v, want %v", after, reused > reusedBefore, wantReused)
		}
	}
	clean("nothing", false)
	clean("a clean execution", true)

	panics := exec.PanicsRecovered()
	faultinject.Arm("exec.next", faultinject.Fault{Kind: faultinject.KindPanic, After: 2})
	_, err := run(context.Background(), 8)
	faultinject.Reset()
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic surfaced as %v", err)
	}
	if got := exec.PanicsRecovered() - panics; got != 1 {
		t.Fatalf("exec.PanicsRecovered moved by %d, want 1", got)
	}
	clean("a recovered panic", false)

	cancels := exec.CancelObserved()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := run(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution ended in %v", err)
	}
	if got := exec.CancelObserved() - cancels; got != 1 {
		t.Fatalf("exec.CancelObserved moved by %d, want 1", got)
	}
	clean("a cancellation", false)

	var be *exec.BudgetError
	if _, err := run(context.Background(), 0); !errors.As(err, &be) { // 576 rows against a budget of 100
		t.Fatalf("over-budget execution ended in %v", err)
	}
	clean("a budget abort", false)
	clean("a clean execution", true)
}

// TestReuseServesRecreatedTable: a shape executed, its table dropped and
// created again with other rows, the shape executed again — the second
// execution reads the new table (the old plan went with the old table,
// and its pipelines with it).
func TestReuseServesRecreatedTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rel *relation.Relation) string {
		path := dir + "/" + name + ".csv"
		if err := csvio.WriteFile(path, rel); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v1 := write("v1", relation.NewBuilder("a int").Row(0, 5, 1).Row(0, 5, 2).MustBuild())
	v2 := write("v2", relation.NewBuilder("a int").Row(0, 5, 2).Row(3, 9, 2).Row(0, 5, 3).MustBuild())
	srv := server.New(server.Config{Flags: plan.DefaultFlags()})
	exec1 := func(sql string) *relation.Relation {
		t.Helper()
		res := sqltest.MustRun(t, srv, sql)
		return res.Rel
	}
	exec1("CREATE TABLE c FROM CSV '" + v1 + "'")
	for i, want := range []int{1, 1} {
		if got := exec1("SELECT a FROM c WHERE a = 2").Len(); got != want {
			t.Fatalf("execution %d over v1: %d rows, want %d", i, got, want)
		}
	}
	if _, reused := srv.PipelineStats(); reused != 1 {
		t.Fatalf("two executions of one shape reused %d pipelines, want 1", reused)
	}
	exec1("DROP TABLE c")
	exec1("CREATE TABLE c FROM CSV '" + v2 + "'")
	if got := exec1("SELECT a FROM c WHERE a = 2").Len(); got != 2 {
		t.Fatalf("after DROP + CREATE: %d rows, want the new table's 2", got)
	}
	if built, _ := srv.PipelineStats(); built != 2 {
		t.Fatalf("%d pipelines built, want 2: one per table the shape was planned over", built)
	}
}

// pointShapes are the benchmark's point_prepared statement shapes, $1
// where the employee id goes.
var pointShapes = []string{
	"SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p ALIGN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn) x",
	"SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM b WHERE ssn = $1) q USING (ssn)) x",
	"SELECT p.ssn s1, q.pcn p2 FROM (SELECT ssn, pcn FROM a WHERE ssn = $1) p JOIN (SELECT ssn, pcn FROM b WHERE ssn = $1) q ON p.ssn = q.ssn",
	"SELECT ssn, pcn, Ts, Te FROM a WHERE ssn = $1",
	"SELECT pcn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE ssn = $1) p NORMALIZE (SELECT ssn, pcn FROM a WHERE ssn = $1) q USING (pcn)) x GROUP BY pcn, Ts, Te",
}

// TestPointWorkloadReuseIsTotal replays the benchmark's point_prepared
// round — the five shapes prepared, twice, then the same ten as ad-hoc
// text with the literal inlined, the literal moving every round — for 50
// rounds on one server. Reuse is total: one pipeline is built per cached
// plan (the five shapes in $1 form and in lifted-literal form) and every
// other one of the 1 000 executions re-opens one; the prepared and ad-hoc
// twins agree throughout. Once more with join_eq's θ written without an
// equality, so that it runs as the nested loop — the keyless ColHashJoin:
// no join access leaves a shape on a row operator.
func TestPointWorkloadReuseIsTotal(t *testing.T) {
	for _, method := range []string{"hash", "nestloop"} {
		shapes := append([]string(nil), pointShapes...)
		if method == "nestloop" {
			shapes[2] = strings.Replace(shapes[2], "ON p.ssn = q.ssn", "ON p.ssn <= q.ssn AND p.ssn >= q.ssn", 1)
		}
		srv := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
		srv.Catalog().Register("a", dataset.Incumben(dataset.IncumbenConfig{Rows: 1000, Seed: 1}))
		srv.Catalog().Register("b", dataset.Incumben(dataset.IncumbenConfig{Rows: 1000, Seed: 2}))
		srv.AnalyzeAll()
		for i, sql := range shapes {
			if _, err := srv.Prepare("s", fmt.Sprint("p", i), sql); err != nil {
				t.Fatal(err)
			}
		}
		if plan, err := srv.Explain("s", "p2", ""); err != nil || !strings.Contains(plan, method+" inner join") {
			t.Fatalf("join_eq is not planned as a %s join: %v\n%s", method, err, plan)
		}
		const rounds = 50
		for round := 0; round < rounds; round++ {
			for slot := 0; slot < 10; slot++ {
				lo, shape := int64(round*10+slot)%97, slot%5
				prepared, err := sqltest.Run(t.Context(), srv, "s", fmt.Sprint("p", shape), "", []value.Value{value.NewInt(lo)}, 0)
				if err != nil {
					t.Fatal(err)
				}
				adhoc := sqltest.MustRun(t, srv, strings.ReplaceAll(shapes[shape], "$1", fmt.Sprint(lo)))
				if !slices.EqualFunc(sqltest.Keys(prepared.Rel), sqltest.Keys(adhoc.Rel), bytes.Equal) {
					t.Fatalf("%s, round %d, shape %d, ssn = %d: prepared and ad-hoc disagree", method, round, shape, lo)
				}
			}
		}
		built, reused := srv.PipelineStats()
		if plans := srv.CacheStats().Plans; built != plans || plans > 10 {
			t.Errorf("%s: %d pipelines built for %d cached plans (want equal, at most 10)", method, built, plans)
		}
		if built+reused != 20*rounds {
			t.Errorf("%s: built %d + reused %d = %d, want one per execution: %d", method, built, reused, built+reused, 20*rounds)
		}
	}
}
