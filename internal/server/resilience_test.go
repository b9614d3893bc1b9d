package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// resilServer builds a server over one table t(v) with n tuples, with a
// config mutator for timeout/budget/flags variations.
func resilServer(t *testing.T, n int, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Flags: plan.DefaultFlags(), MaxDOP: 16}
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	b := relation.NewBuilder("v int")
	for i := 0; i < n; i++ {
		b.Row(int64(i%13), int64(i%13)+50, int64(i))
	}
	s.Catalog().Register("t", b.MustBuild())
	return s
}

// drainRows consumes a stream to completion (or error) and closes it.
func drainRows(rs *RowStream) (int, error) {
	defer rs.Close()
	total := 0
	for {
		b, err := rs.Next()
		if err != nil {
			return total, err
		}
		if len(b) == 0 {
			return total, nil
		}
		total += len(b)
	}
}

// assertQuiesced waits for the gate to return to zero in-flight queries and
// the goroutine count to return to its baseline.
func assertQuiesced(t *testing.T, s *Server, baseline int) {
	t.Helper()
	waitFor(t, 5*time.Second, "gate to release all claims", func() bool {
		return s.GateStats().InUse == 0
	})
	waitFor(t, 5*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestPanicFunctionIsolated is the crash-isolation acceptance test (run
// with -race): a registered SQL function that panics mid-batch must fail
// its query with a structured "internal" error, leak no goroutines,
// release the admission gate, and count into the panic metric. The process
// (and the test binary) must survive.
func TestPanicFunctionIsolated(t *testing.T) {
	expr.RegisterFunc("chaos_panic_at", expr.RegisteredFunc{
		MinArity: 2, MaxArity: 2, Result: value.KindInt,
		Eval: func(args []value.Value) (value.Value, error) {
			if args[0].Int() == args[1].Int() {
				panic("chaos function panic")
			}
			return args[0], nil
		},
	})
	t.Cleanup(func() { expr.UnregisterFunc("chaos_panic_at") })

	baseline := runtime.NumGoroutine()
	s := resilServer(t, 5000, nil)

	_, err := sqltest.Run(t.Context(), s, "", "", "SELECT v, Ts, Te FROM t WHERE chaos_panic_at(v, 7) = v", nil, 0)
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *exec.PanicError", err)
	}
	if fmt.Sprint(pe.Val) != "chaos function panic" {
		t.Fatalf("recovered wrong panic value: %v", pe.Val)
	}
	if code := errorCode(err); code != sqlish.ErrInternal {
		t.Fatalf("errorCode = %q, want %q", code, sqlish.ErrInternal)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics metric = %d, want 1", got)
	}
	assertQuiesced(t, s, baseline)
}

// TestQueryTimeout proves the server-side per-query deadline aborts a
// long execution with the "timeout" code, releasing the gate and leaking
// nothing.
func TestQueryTimeout(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// 10 000 mutually overlapping rows: the self-ALIGN reads 100M group
	// candidates, several times the timeout's worth of work.
	s := resilServer(t, 10000, func(c *Config) {
		c.Timeout = 100 * time.Millisecond
	})

	start := time.Now()
	_, err := sqltest.Run(t.Context(), s, "", "", "SELECT v, Ts, Te FROM (t a ALIGN t b ON true) x", nil, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if code := errorCode(err); code != sqlish.ErrTimeout {
		t.Fatalf("errorCode = %q, want %q", code, sqlish.ErrTimeout)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s to take effect", elapsed)
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts metric = %d, want 1", got)
	}
	assertQuiesced(t, s, baseline)
}

// TestResourceBudget proves the per-query row budget aborts a query that
// pushes too many tuples through operator boundaries, with the
// "resource" code and a clean teardown.
func TestResourceBudget(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := resilServer(t, 5000, func(c *Config) { c.MaxRows = 50 })

	_, err := sqltest.Run(t.Context(), s, "", "", "SELECT v, Ts, Te FROM t", nil, 0)
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *exec.BudgetError", err)
	}
	if code := errorCode(err); code != sqlish.ErrResource {
		t.Fatalf("errorCode = %q, want %q", code, sqlish.ErrResource)
	}
	if got := s.resourceAborts.Load(); got != 1 {
		t.Fatalf("resourceAborts metric = %d, want 1", got)
	}
	assertQuiesced(t, s, baseline)
}

// TestBudgetAllowsSmallResults proves a budget above a query's needs
// changes nothing: the full result still streams.
func TestBudgetAllowsSmallResults(t *testing.T) {
	s := resilServer(t, 100, func(c *Config) { c.MaxRows = 100_000; c.MaxBytes = 100 << 20 })
	res, err := sqltest.Run(t.Context(), s, "", "", "SELECT v, Ts, Te FROM t", nil, 0)
	if err != nil || res.Rel.Len() != 100 {
		t.Fatalf("got %v, err %v; want 100 rows, nil", res.Rel, err)
	}
}

// TestDrainLifecycle proves BeginDrain flips /readyz to 503 (with the
// structured "unavailable" body), refuses new queries with the same
// code, keeps /healthz alive, and lets an in-flight stream finish.
func TestDrainLifecycle(t *testing.T) {
	s := resilServer(t, 2000, nil)
	h := s.Handler()

	probe := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, _ := probe("/readyz"); code != 200 {
		t.Fatalf("/readyz before drain: %d, want 200", code)
	}

	// Open a stream, then drain with it still in flight.
	rs, err := s.StreamBatch(context.Background(), "", "", "SELECT v, Ts, Te FROM t", nil, 0)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	s.BeginDrain()

	if code, body := probe("/readyz"); code != 503 || !strings.Contains(body, sqlish.ErrUnavailable) {
		t.Fatalf("/readyz draining: %d %q, want 503 with %q", code, body, sqlish.ErrUnavailable)
	}
	if code, _ := probe("/healthz"); code != 200 {
		t.Fatalf("/healthz draining: %d, want 200 (liveness is not readiness)", code)
	}
	if _, body := probe("/metrics"); !strings.Contains(body, "talignd_draining 1") {
		t.Fatal("/metrics does not report talignd_draining 1")
	}

	// New work is refused with the structured code...
	_, err = s.StreamBatch(context.Background(), "", "", "SELECT v, Ts, Te FROM t", nil, 0)
	var se *sqlish.Error
	if !errors.As(err, &se) || se.Code != sqlish.ErrUnavailable {
		t.Fatalf("query during drain: %v, want structured %q error", err, sqlish.ErrUnavailable)
	}
	// ...while the in-flight stream still completes.
	n, err := drainRows(rs)
	if err != nil || n != 2000 {
		t.Fatalf("in-flight stream under drain: %d rows, err %v; want 2000, nil", n, err)
	}
}

// TestPanicDoesNotDisturbConcurrentQuery runs a slow ALIGN
// while a second query panics: the panic must fail only its own query.
func TestPanicDoesNotDisturbConcurrentQuery(t *testing.T) {
	expr.RegisterFunc("chaos_always_panic", expr.RegisteredFunc{
		MinArity: 1, MaxArity: 1, Result: value.KindInt,
		Eval: func(args []value.Value) (value.Value, error) {
			panic("concurrent chaos")
		},
	})
	t.Cleanup(func() { expr.UnregisterFunc("chaos_always_panic") })

	baseline := runtime.NumGoroutine()
	s := resilServer(t, 2000, nil)

	type result struct {
		rows int
		err  error
	}
	alignDone := make(chan result, 1)
	go func() {
		rs, err := s.StreamBatch(context.Background(), "", "", "SELECT v, Ts, Te FROM (t a ALIGN t b ON true) x", nil, 0)
		if err != nil {
			alignDone <- result{0, err}
			return
		}
		n, err := rs.Next() // hold the stream open past the panic below
		if err != nil {
			alignDone <- result{0, err}
			return
		}
		total := len(n)
		more, err := drainRows(rs)
		alignDone <- result{total + more, err}
	}()

	waitFor(t, 10*time.Second, "align stream to produce rows", func() bool {
		return s.rowsStreamed.Load() > 0
	})
	_, err := sqltest.Run(t.Context(), s, "", "", "SELECT v, Ts, Te FROM t WHERE chaos_always_panic(v) = v", nil, 0)
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking query: got %v, want *exec.PanicError", err)
	}

	res := <-alignDone
	if res.err != nil {
		t.Fatalf("concurrent ALIGN was disturbed: %v", res.err)
	}
	if res.rows == 0 {
		t.Fatal("concurrent ALIGN produced no rows")
	}
	assertQuiesced(t, s, baseline)
}
