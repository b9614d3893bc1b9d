package server_test

import (
	"context"
	"fmt"
	"testing"

	"talign/internal/faultinject"
	"talign/internal/plan"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// decliningDistributor reads every statement's AST the way a coordinator
// does (DistInfo) and then declines it, leaving execution to the local
// pipeline.
type decliningDistributor struct{ srv *server.Server }

func (d decliningDistributor) DistStream(_ context.Context, st *sqlish.Statement, _ []value.Value, _ int) (*server.DistResult, bool, error) {
	st.DistInfo(d.srv.Catalog().Snapshot())
	return nil, false, nil
}

func (d decliningDistributor) DistExplain(st *sqlish.Statement) (string, bool, error) {
	st.DistInfo(d.srv.Catalog().Snapshot())
	return "", false, nil
}

func (decliningDistributor) DistMetrics() []server.DistMetric { return nil }

// TestOneLexAtMostOneParse counts the lexer's and the parser's runs (at
// their fault-injection sites) on every server path: a statement is lexed
// exactly once when it arrives as text and never when it runs by name,
// and parsed at most once — not at all when its shape's plan is cached —
// on a single node and with a distributor reading every AST.
func TestOneLexAtMostOneParse(t *testing.T) {
	count := func(fn func()) (lexes, parses uint64) {
		t.Helper()
		for _, site := range []string{"sqlish.lex", "sqlish.parse"} {
			faultinject.Reset()
			faultinject.Arm(site, faultinject.Fault{Kind: faultinject.KindDelay, Repeat: true})
			fn()
			if site == "sqlish.lex" {
				lexes = faultinject.Fired()
			} else {
				parses = faultinject.Fired()
			}
		}
		faultinject.Reset()
		return lexes, parses
	}
	// Every step runs twice (once per counted site), so each step is
	// written to cost the same both times: literals move on every call.
	next := int64(100)
	lit := func() int64 { next++; return next }
	for _, distributed := range []bool{false, true} {
		srv := server.New(server.Config{Flags: plan.DefaultFlags()})
		for name, rel := range shapeRels(0) {
			srv.Catalog().Register(name, rel)
		}
		if distributed {
			srv.SetDistributor(decliningDistributor{srv})
		}
		query := func(stmt, sql string, params ...value.Value) func() {
			return func() {
				t.Helper()
				if _, err := sqltest.Run(t.Context(), srv, "", stmt, sql, params, 0); err != nil {
					t.Fatalf("%s%s: %v", stmt, sql, err)
				}
			}
		}
		// Warm one ad-hoc shape and one named statement.
		query("", "SELECT a, b FROM r WHERE a >= 0 AND b <= 2")()
		if _, err := srv.Prepare("", "q", "SELECT a, b FROM r WHERE a >= $1 AND b <> 7"); err != nil {
			t.Fatal(err)
		}
		hitParses := uint64(0)
		if distributed {
			hitParses = 1 // the distributor reads the AST of every text
		}
		steps := []struct {
			name          string
			run           func()
			lexes, parses uint64
		}{
			{"ad-hoc text on a cached shape", func() {
				query("", fmt.Sprintf("SELECT a, b FROM r WHERE a >= %d AND b <= 2", lit()))()
			}, 1, hitParses},
			{"ad-hoc text on a new shape", func() {
				query("", fmt.Sprintf("SELECT a, b, %d x FROM r WHERE a >= 1", lit()))()
			}, 1, 1},
			{"named statement", query("q", "", value.NewInt(0)), 0, 0},
			{"prepare", func() {
				if _, err := srv.Prepare("", "p", fmt.Sprintf("SELECT a, %d y FROM r WHERE b = $1", lit())); err != nil {
					t.Fatal(err)
				}
			}, 1, 1},
			{"GET /explain of text", func() {
				if _, err := srv.Explain("", "", fmt.Sprintf("SELECT a FROM r WHERE a = %d", lit())); err != nil {
					t.Fatal(err)
				}
			}, 1, 1},
			{"GET /explain of a named statement", func() {
				if _, err := srv.Explain("", "q", ""); err != nil {
					t.Fatal(err)
				}
			}, 0, 0},
			{"EXPLAIN statement", query("", "EXPLAIN SELECT a FROM r WHERE a = 1"), 1, 1},
			{"ANALYZE statement", query("", "ANALYZE r"), 1, 1},
			{"syntax error", func() {
				if _, err := sqltest.Run(t.Context(), srv, "", "", "SELECT a FROM r WHERE a = ", nil, 0); err == nil {
					t.Fatal("syntax error accepted")
				}
			}, 1, 1},
		}
		for _, st := range steps {
			lexes, parses := count(st.run)
			if lexes != st.lexes || parses != st.parses {
				t.Errorf("distributed=%v %s: %d lex, %d parse; want %d and %d", distributed, st.name, lexes, parses, st.lexes, st.parses)
			}
		}
	}
}
