package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqltest"
)

// TestAnalyzeInvalidatesPlanCache: ANALYZE bumps the statistics version,
// so the next execution of a cached statement re-plans against the fresh
// statistics while older entries simply age out.
func TestAnalyzeInvalidatesPlanCache(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	const q = "SELECT a FROM p WHERE a >= 40"
	if _, err := sqltest.Run(t.Context(), s, "", "", q, nil, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sqltest.Run(t.Context(), s, "", "", q, nil, 0)
	if err != nil || !res.CacheHit {
		t.Fatalf("second execution should hit the cache (err=%v hit=%v)", err, res.CacheHit)
	}
	plans := s.CacheStats().Plans

	res = sqltest.MustRun(t, s, "ANALYZE p")
	if !strings.Contains(res.Plan, "ANALYZE p: 5 rows") {
		t.Fatalf("ANALYZE summary = %q", res.Plan)
	}

	res = sqltest.MustRun(t, s, q)
	if res.CacheHit {
		t.Fatal("ANALYZE must invalidate the cached plan (stats version keying)")
	}
	if got := s.CacheStats().Plans; got != plans+1 {
		t.Fatalf("expected exactly one re-plan after ANALYZE, plans %d -> %d", plans, got)
	}
	if s.catalog.Snapshot().TableStats("p") == nil {
		t.Fatal("ANALYZE did not install statistics")
	}
	// ANALYZE of an unknown table errors cleanly.
	if _, err := sqltest.Run(t.Context(), s, "", "", "ANALYZE nosuch", nil, 0); err == nil {
		t.Fatal("ANALYZE nosuch should fail")
	}
}

// TestRegisterDropsStats: replacing a table discards its (now stale)
// statistics.
func TestRegisterDropsStats(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	if _, err := s.Analyze("r"); err != nil {
		t.Fatal(err)
	}
	if s.catalog.Snapshot().TableStats("r") == nil {
		t.Fatal("stats missing after Analyze")
	}
	s.Catalog().Register("r", relation.NewBuilder("n string").Row(0, 1, "Zed").MustBuild())
	if s.catalog.Snapshot().TableStats("r") != nil {
		t.Fatal("stale stats must be dropped when a table is replaced")
	}
}

// TestSetStatsIfDiscardsRacedAnalyze: statistics computed against a
// relation that was re-registered mid-scan must not be installed — the
// catalog invariant is that stats always describe the registered
// relation (GET /stats indexes the schema by the stats' column count).
func TestSetStatsIfDiscardsRacedAnalyze(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	old, _ := s.catalog.Snapshot().Lookup("p")
	s.Catalog().Register("p", relation.NewBuilder("x int").Row(0, 1, 1).MustBuild())
	if s.catalog.SetStatsIf("p", old, nil) {
		t.Fatal("SetStatsIf must refuse stats for a replaced relation")
	}
	if s.catalog.Snapshot().TableStats("p") != nil {
		t.Fatal("raced stats were installed")
	}
	// A fresh Analyze against the new relation succeeds.
	if _, err := s.Analyze("p"); err != nil {
		t.Fatalf("re-ANALYZE: %v", err)
	}
}

// TestHTTPStatsEndpoint drives GET /stats: per-table summaries appear
// once analyzed, alongside the plan-cache counters.
func TestHTTPStatsEndpoint(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() map[string]any {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /stats: %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	out := get()
	tables := out["tables"].([]any)
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %v", out)
	}
	if tables[0].(map[string]any)["analyzed"].(bool) {
		t.Fatal("tables must start unanalyzed")
	}

	if n := s.AnalyzeAll(); n != 2 {
		t.Fatalf("AnalyzeAll = %d, want 2", n)
	}
	out = get()
	for _, tb := range out["tables"].([]any) {
		entry := tb.(map[string]any)
		if !entry["analyzed"].(bool) {
			t.Fatalf("table %v not analyzed", entry["name"])
		}
		if len(entry["columns"].([]any)) == 0 {
			t.Fatalf("table %v has no column stats", entry["name"])
		}
		if entry["interval"] == nil {
			t.Fatalf("table %v has no interval stats", entry["name"])
		}
	}
	if _, ok := out["cache"].(map[string]any); !ok {
		t.Fatalf("missing cache counters: %v", out)
	}
	if out["stats_version"].(float64) < 2 {
		t.Fatalf("stats_version = %v, want >= 2 after AnalyzeAll", out["stats_version"])
	}
}

// TestConcurrentAnalyzeStress interleaves concurrent ANALYZE churn
// (statistics version bumps → plan-cache invalidation → re-planning,
// possibly with different physical plans) with prepared-statement and
// ad-hoc execution, diffing every result against the serial answer. Run
// with -race this is the acceptance check that statistics churn cannot
// corrupt results or leak gate units.
func TestConcurrentAnalyzeStress(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags(), MaxDOP: 4})
	runStress(t, s, 30, 2000, func(stop <-chan struct{}) {
		tables := []string{"r", "p"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sqltest.Run(t.Context(), s, "", "", "ANALYZE "+tables[i%2], nil, 0); err != nil {
				t.Errorf("ANALYZE churn: %v", err)
				return
			}
		}
	})
}

// TestHTTPExplainAnalyze: EXPLAIN ANALYZE over the wire returns the
// instrumented plan in the plan slot.
func TestHTTPExplainAnalyze(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, out := post(t, ts, "/query", `{"sql": "EXPLAIN ANALYZE SELECT a FROM p WHERE a >= $1", "params": [40]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	text, _ := out["plan"].(string)
	if !strings.Contains(text, "actual rows=4") {
		t.Fatalf("EXPLAIN ANALYZE plan missing actuals: %v", out)
	}
}
