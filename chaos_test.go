package talign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"talign/internal/faultinject"
	"talign/internal/plan"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/value"
	"talign/internal/wire"
)

// chaosQueries is the differential corpus: scans, joins, temporal
// primitives and aggregation over the randomized relations r and s, so
// injected faults land in every operator family.
var chaosQueries = []string{
	"SELECT a, b, Ts, Te FROM r",
	"SELECT a, b, Ts, Te FROM r WHERE a >= 1",
	"SELECT r.a, s.b FROM r JOIN s ON r.a = s.a",
	"SELECT a, b, Ts, Te FROM (r ALIGN s ON r.a = s.a) x",
	"SELECT a, b, Ts, Te FROM (r NORMALIZE s USING (a)) x",
	"SELECT a, b FROM r UNION SELECT a, b FROM s",
	"SELECT a, COUNT(*) c FROM r GROUP BY a",
}

// chaosSites pairs each fault-injection site with the kinds that are
// survivable there. Every site must be one a faultinject.Hit call names:
// TestChaosDifferential fails when a listed site never fires. Panics are
// only injected behind recovery boundaries (operator guards, the server's
// stream guard); client-side and handler sites get errors and delays,
// which exercise teardown without crashing unguarded stacks.
var chaosSites = []struct {
	site  string
	kinds []faultinject.Kind
}{
	{"exec.open", []faultinject.Kind{faultinject.KindPanic, faultinject.KindError, faultinject.KindDelay}},
	{"exec.next", []faultinject.Kind{faultinject.KindPanic, faultinject.KindError, faultinject.KindDelay}},
	{"server.stream", []faultinject.Kind{faultinject.KindPanic, faultinject.KindError, faultinject.KindDelay}},
	{"server.stream.rows", []faultinject.Kind{faultinject.KindError, faultinject.KindDelay}},
	{"wire.decode", []faultinject.Kind{faultinject.KindError, faultinject.KindDelay}},
}

// chaosCodes are the wire error codes a fault-injected run may
// legitimately end with.
var chaosCodes = map[string]bool{
	sqlish.ErrInternal:    true,
	sqlish.ErrExecute:     true,
	sqlish.ErrTimeout:     true,
	sqlish.ErrCancelled:   true,
	sqlish.ErrResource:    true,
	sqlish.ErrUnavailable: true,
}

// chaosRun executes one query through the public client and returns its
// rows canonicalized: each row rendered and the set sorted, so two
// executions compare byte-for-byte whatever order the plan emits.
func chaosRun(db *DB, q string) ([]string, error) {
	rows, err := db.Query(context.Background(), q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		vals := rows.Values()
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// chaosErrOK classifies a failed run: the error must be a structured
// wire error with a known code, or one of the client's own structured
// shapes (an injected decode fault, a truncated-stream report, a
// context deadline). A bare panic would have killed the test binary —
// reaching this function at all is the isolation proof.
func chaosErrOK(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return chaosCodes[we.Code]
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "faultinject:") ||
		strings.Contains(msg, "talign: bad stream") ||
		strings.Contains(msg, "talign: stream truncated")
}

// TestChaosDifferential is the fault-injection acceptance test (run with
// -race): randomized faults — panics, errors, delays — armed at named
// sites across the executor, the server and the wire client, over a
// randomized catalog and the differential query corpus. Every run must
// end in either a byte-correct result (identical to the fault-free
// baseline) or a structured, coded error; every listed site must fire at
// least once over the whole run; afterwards the server must report zero
// in-flight queries and the process must hold no leaked goroutines.
func TestChaosDifferential(t *testing.T) {
	attrs := []schema.Attr{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt},
	}
	rng := rand.New(rand.NewSource(7411))
	cfg := randrel.DefaultConfig(attrs...)
	cfg.MaxTuples = 40
	rels := map[string]*relation.Relation{
		"r": randrel.Generate(rng, cfg),
		"s": randrel.Generate(rng, cfg),
	}

	srv := server.New(server.Config{Flags: plan.DefaultFlags(), MaxDOP: 16})
	for name, rel := range rels {
		srv.Catalog().Register(name, rel)
	}
	srv.AnalyzeAll()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// retry=0: a retried run would mask the injected fault and turn a
	// deterministic differential into a flaky one.
	db, err := Open(ts.URL + "?retry=0")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	t.Cleanup(faultinject.Reset)

	baselineGoroutines := runtime.NumGoroutine()
	baseline := make(map[string][]string, len(chaosQueries))
	for _, q := range chaosQueries {
		rows, err := chaosRun(db, q)
		if err != nil {
			t.Fatalf("baseline %s: %v", q, err)
		}
		baseline[q] = rows
	}

	runs := 250
	if testing.Short() {
		runs = 60
	}
	var correct, failed int
	var fired uint64
	firedAt := make(map[string]uint64, len(chaosSites))
	for i := 0; i < runs; i++ {
		q := chaosQueries[rng.Intn(len(chaosQueries))]
		sp := chaosSites[rng.Intn(len(chaosSites))]
		kind := sp.kinds[rng.Intn(len(sp.kinds))]
		after := rng.Intn(5)
		faultinject.Arm(sp.site, faultinject.Fault{
			Kind:  kind,
			After: after,
			Delay: time.Duration(rng.Intn(3)) * time.Millisecond,
		})
		got, err := chaosRun(db, q)
		n := faultinject.Fired()
		fired += n
		firedAt[sp.site] += n
		faultinject.Reset()

		tag := fmt.Sprintf("run %d: %s@%s after=%d on %q", i, kind, sp.site, after, q)
		if err == nil {
			correct++
			if !equalStrings(got, baseline[q]) {
				t.Fatalf("%s: survived but rows differ from baseline\ngot  %v\nwant %v", tag, got, baseline[q])
			}
			continue
		}
		failed++
		if !chaosErrOK(err) {
			t.Fatalf("%s: unstructured error: %v", tag, err)
		}
	}
	t.Logf("chaos: %d runs, %d byte-correct, %d structured failures, %d faults fired",
		runs, correct, failed, fired)
	// A site no run fired at is not being tested: its runs only repeat the
	// baseline.
	for _, sp := range chaosSites {
		if firedAt[sp.site] == 0 {
			t.Errorf("site %s never fired in %d runs", sp.site, runs)
		}
	}

	// Quiesce: the gate must be fully released and goroutines back to
	// baseline (HTTP keep-alive conns settle within the wait window).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.GateStats().InUse == 0 && runtime.NumGoroutine() <= baselineGoroutines+4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if g := srv.GateStats(); g.InUse != 0 {
		t.Fatalf("gate still holds %d in-flight queries after chaos", g.InUse)
	}
	if n := runtime.NumGoroutine(); n > baselineGoroutines+4 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baselineGoroutines, buf[:runtime.Stack(buf, true)])
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
