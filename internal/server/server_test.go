package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"talign/internal/plan"
)

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestHTTPQuery(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, out := post(t, ts, "/query", `{"sql": "SELECT a FROM p WHERE a >= $1 ORDER BY a", "params": [40]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if got := out["row_count"].(float64); got != 4 {
		t.Fatalf("row_count = %v, want 4", got)
	}
	cols := out["columns"].([]any)
	if len(cols) != 3 || cols[0] != "a" || cols[1] != "ts" || cols[2] != "te" {
		t.Fatalf("columns = %v", cols)
	}
	row := out["rows"].([]any)[0].([]any)
	if row[0].(float64) != 40 {
		t.Fatalf("first row = %v", row)
	}

	// An empty result names its columns and types and has no rows key.
	code, out = post(t, ts, "/query", `{"sql": "SELECT a FROM p WHERE a >= $1", "params": [100]}`)
	if _, hasRows := out["rows"]; code != http.StatusOK || out["row_count"] != 0.0 || hasRows ||
		fmt.Sprint(out["columns"], out["types"]) != "[a ts te] [int int int]" {
		t.Fatalf("empty result: status %d: %v", code, out)
	}
}

func TestHTTPPrepareExecute(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, out := post(t, ts, "/prepare", `{"session": "s1", "name": "q1", "sql": "SELECT n FROM r WHERE n = $1"}`)
	if code != http.StatusOK {
		t.Fatalf("prepare status %d: %v", code, out)
	}
	if out["params"].(float64) != 1 || out["name"] != "q1" {
		t.Fatalf("prepare response: %v", out)
	}

	for i := 0; i < 2; i++ {
		code, out = post(t, ts, "/query", `{"session": "s1", "stmt": "q1", "params": ["Ann"]}`)
		if code != http.StatusOK {
			t.Fatalf("execute status %d: %v", code, out)
		}
		if out["row_count"].(float64) != 2 {
			t.Fatalf("row_count = %v, want 2", out["row_count"])
		}
		if out["cache_hit"] != true {
			t.Fatalf("execution %d was not a cache hit", i+1)
		}
	}
	if st := s.CacheStats(); st.Plans != 1 {
		t.Fatalf("planned %d times over prepare + 2 executes, want 1", st.Plans)
	}

	// Unknown statement and wrong param count are client errors with
	// structured {code, message} bodies.
	code, out = post(t, ts, "/query", `{"session": "s1", "stmt": "nope"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown stmt: status %d: %v", code, out)
	}
	code, out = post(t, ts, "/query", `{"session": "s1", "stmt": "q1", "params": []}`)
	if code != http.StatusBadRequest {
		t.Fatalf("missing params: status %d: %v", code, out)
	}
	if e := out["error"].(map[string]any); !strings.Contains(e["message"].(string), "parameter") {
		t.Fatalf("missing params error: %v", out)
	}
	// Sessions isolate statements.
	code, _ = post(t, ts, "/query", `{"session": "other", "stmt": "q1", "params": ["Ann"]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("statement leaked across sessions: status %d", code)
	}
}

func TestHTTPExplainAndHealthz(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags(), MaxDOP: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/explain?sql=" + strings.ReplaceAll("SELECT n FROM r WHERE n = $1", " ", "%20"))
	if err != nil {
		t.Fatalf("GET /explain: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(text), "SeqScan r") {
		t.Fatalf("explain: status %d body %q", resp.StatusCode, text)
	}

	// EXPLAIN through /query returns the plan as JSON.
	code, out := post(t, ts, "/query", `{"sql": "EXPLAIN SELECT n FROM r"}`)
	if code != http.StatusOK || !strings.Contains(out["plan"].(string), "SeqScan r") {
		t.Fatalf("EXPLAIN via /query: status %d: %v", code, out)
	}

	code, out = post(t, ts, "/query", `{"sql": "SELECT broken FROM nowhere"}`)
	if code != http.StatusBadRequest || out["error"] == nil {
		t.Fatalf("bad query: status %d: %v", code, out)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health["ok"] != true {
		t.Fatalf("healthz: %v", health)
	}
	cat := health["catalog"].(map[string]any)
	tables := cat["tables"].([]any)
	if len(tables) != 2 {
		t.Fatalf("healthz tables: %v", tables)
	}
	gate := health["gate"].(map[string]any)
	if gate["capacity"].(float64) != 8 {
		t.Fatalf("healthz gate: %v", gate)
	}
}

// TestHTTPStructuredErrors asserts the {code, message, line, col} error
// object on every failing path: parse errors carry the offending token's
// 1-based statement position, analyzer errors the "analyze" code, and
// request-shape errors the "request" code.
func TestHTTPStructuredErrors(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	errObj := func(body string) map[string]any {
		t.Helper()
		code, out := post(t, ts, "/query", body)
		if code != http.StatusBadRequest || out["error"] == nil {
			t.Fatalf("body %s: status %d: %v", body, code, out)
		}
		e, ok := out["error"].(map[string]any)
		if !ok {
			t.Fatalf("body %s: error is not structured: %v", body, out)
		}
		return e
	}

	// Parse error on line 2, after 8 leading bytes: "SELECT n\nFROM r WHERE".
	e := errObj(`{"sql": "SELECT n\nFROM r WHERE"}`)
	if e["code"] != "parse" {
		t.Fatalf("parse error code = %v", e)
	}
	if e["line"].(float64) != 2 || e["col"].(float64) != 13 {
		t.Fatalf("parse error position = line %v col %v, want 2:13 (%v)", e["line"], e["col"], e)
	}

	e = errObj(`{"sql": "SELECT broken FROM nowhere"}`)
	if e["code"] != "analyze" || !strings.Contains(e["message"].(string), "nowhere") {
		t.Fatalf("analyze error = %v", e)
	}
	if _, hasLine := e["line"]; hasLine {
		t.Fatalf("analyze error should omit position: %v", e)
	}

	e = errObj(`{}`)
	if e["code"] != "request" {
		t.Fatalf("request error = %v", e)
	}

	// Parameter-count mismatch classifies as a request error too.
	code, out := post(t, ts, "/query", `{"sql": "SELECT n FROM r WHERE n = $1"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("missing param: status %d: %v", code, out)
	}
	if e := out["error"].(map[string]any); e["code"] != "request" {
		t.Fatalf("missing param error = %v", e)
	}

	// A row budget that trips after the first batch reached the handler
	// answers the structured resource error, never a 200 with the rows
	// that came before it.
	small := demoServer(t, Config{Flags: plan.DefaultFlags(), MaxRows: 3})
	sts := httptest.NewServer(small.Handler())
	defer sts.Close()
	code, out = post(t, sts, "/query", `{"sql": "SELECT a FROM p", "batch": 1}`)
	if e, _ := out["error"].(map[string]any); code != http.StatusTooManyRequests || e["code"] != "resource" || out["rows"] != nil || small.rowsStreamed.Load() == 0 {
		t.Fatalf("budget abort after %d streamed rows: status %d: %v", small.rowsStreamed.Load(), code, out)
	}

	// /prepare errors point into the ORIGINAL (multi-line) text as well.
	code, out = post(t, ts, "/prepare", `{"session":"s","name":"q","sql":"SELECT n\nFROM r WHERE"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("prepare parse error: status %d: %v", code, out)
	}
	if e := out["error"].(map[string]any); e["code"] != "parse" || e["line"].(float64) != 2 || e["col"].(float64) != 13 {
		t.Fatalf("prepare parse error = %v", e)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{}`, // neither sql nor stmt
		`{"sql": "SELECT 1 FROM r", "stmt": "x"}`,       // both
		`{"sql": "SELECT n FROM r", "params": [[1,2]]}`, // nested array param
	} {
		code, out := post(t, ts, "/query", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d: %v", body, code, out)
		}
	}
	code, out := post(t, ts, "/prepare", `{"sql": "SELECT n FROM r"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("prepare without name: status %d: %v", code, out)
	}
}
