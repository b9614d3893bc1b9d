package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// stressQueries are the mixed workload: a value filter, a temporal
// normalization, a temporal aggregation and an ALIGN join, each with a
// $1 placeholder, plus one parameterless statement.
var stressQueries = []struct {
	sql     string
	nparams int
}{
	{"SELECT a, mn, mx FROM p WHERE a >= $1", 1},
	{"SELECT n, Ts, Te FROM (r a NORMALIZE r b USING (n)) x", 0},
	{"SELECT n, COUNT(*) c, Ts, Te FROM (r a NORMALIZE r b USING ()) x GROUP BY n, Ts, Te HAVING COUNT(*) >= $1", 1},
	{`WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r)
	  SELECT n, Us, Ue, x.Ts, x.Te FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx AND a >= $1) x`, 1},
	{"SELECT a FROM p WHERE a BETWEEN $1 AND 50 ORDER BY a", 1},
}

// stressParams is the binding domain for $1.
var stressParams = []int64{0, 1, 2, 30, 40, 50}

// TestConcurrentServerMatchesSerial fires N goroutines of mixed prepared
// and ad-hoc executions at one server and diffs every result against the
// serial execution of the same statement with the same binding. Run with
// -race this is the acceptance check for the concurrent serving layer:
// shared cached plans, the COW catalog and the admission gate must not
// corrupt results under contention.
func TestConcurrentServerMatchesSerial(t *testing.T) {
	runStress(t, demoServer(t, Config{Flags: plan.DefaultFlags(), MaxDOP: 4}), 40, 1000, nil)
}

// TestConcurrentCatalogChurn runs the same workload while another
// goroutine registers and drops unrelated tables, exercising the COW
// snapshot path: queries must never observe a half-updated catalog, and
// version churn must only cause re-plans, not wrong results.
func TestConcurrentCatalogChurn(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	runStress(t, s, 50, 3000, func(stop <-chan struct{}) {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("tmp%d", i%4)
			s.Catalog().Register(name, relation.NewBuilder("x int").Row(0, 1, i).MustBuild())
			if i%3 == 0 {
				s.Catalog().Drop(name)
			}
		}
	})
}

// runStress executes every stressQueries binding serially, prepares each
// statement, then has 8 workers (seeded from seed) run iters random
// statements each, half by prepared name and half ad hoc, while churn
// (if set) runs beside them until they finish. Every result must equal
// the serial one, and no admission-gate unit may leak.
func runStress(t *testing.T, s *Server, iters int, seed int64, churn func(stop <-chan struct{})) {
	t.Helper()
	serial := map[string]*relation.Relation{}
	for qi, q := range stressQueries {
		for _, p := range bindings(q.nparams) {
			res, err := sqltest.Run(t.Context(), s, "", "", q.sql, p, 0)
			if err != nil {
				t.Fatalf("serial %s with %v: %v", q.sql, p, err)
			}
			serial[resultKey(qi, p)] = res.Rel
		}
		if _, err := s.Prepare("stress", fmt.Sprintf("q%d", qi), q.sql); err != nil {
			t.Fatalf("Prepare q%d: %v", qi, err)
		}
	}

	stop := make(chan struct{})
	var churned sync.WaitGroup
	if churn != nil {
		churned.Add(1)
		go func() {
			defer churned.Done()
			churn(stop)
		}()
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < iters; i++ {
				qi := rng.Intn(len(stressQueries))
				q := stressQueries[qi]
				var params []value.Value
				if q.nparams == 1 {
					params = []value.Value{value.NewInt(stressParams[rng.Intn(len(stressParams))])}
				}
				stmt, sql := fmt.Sprintf("q%d", qi), ""
				if w%2 == 1 {
					stmt, sql = "", q.sql
				}
				res, err := sqltest.Run(t.Context(), s, "stress", stmt, sql, params, 0)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %s: %v", w, q.sql, err)
					return
				}
				want := serial[resultKey(qi, params)]
				if !relation.SetEqual(res.Rel, want) {
					onlyG, onlyW := relation.Diff(res.Rel, want)
					errs <- fmt.Errorf("worker %d: %s with %v diverged\nonly concurrent: %v\nonly serial: %v",
						w, q.sql, params, onlyG, onlyW)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churned.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.gate.Stats(); st.InUse != 0 {
		t.Fatalf("gate leaked %d units", st.InUse)
	}
}

func bindings(nparams int) [][]value.Value {
	if nparams == 0 {
		return [][]value.Value{nil}
	}
	out := make([][]value.Value, len(stressParams))
	for i, p := range stressParams {
		out[i] = []value.Value{value.NewInt(p)}
	}
	return out
}

func resultKey(qi int, params []value.Value) string {
	key := fmt.Sprintf("q%d", qi)
	for _, p := range params {
		key += "|" + p.String()
	}
	return key
}
