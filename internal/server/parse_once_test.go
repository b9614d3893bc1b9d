package server_test

import (
	"fmt"
	"testing"

	"talign/internal/faultinject"
	"talign/internal/server"
	"talign/internal/sqltest"
	"talign/internal/value"
)

// TestOneLexAtMostOneParse counts the lexer's and the parser's runs (at
// their fault-injection sites) on every server path: a statement is lexed
// exactly once when it arrives as text and never when it runs by name,
// and parsed at most once — not at all when its shape's plan, local or
// distributed, is cached — on a single node and on a coordinator over one
// worker. There a fragment also costs its worker a lex of the fragment's
// text, and a parse when that shape is new to the worker.
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
	for d, srv := range []*server.Server{single(shapeRels(0)), coordinator(t, 1, shapeRels(0))} {
		distributed := d == 1
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
		// Counts on a single node, then on the coordinator.
		steps := []struct {
			name          string
			run           func()
			lexes, parses [2]uint64
		}{
			{"ad-hoc text on a cached shape", func() {
				query("", fmt.Sprintf("SELECT a, b FROM r WHERE a >= %d AND b <= 2", lit()))()
			}, [2]uint64{1, 2}, [2]uint64{0, 0}},
			{"ad-hoc text on a new shape", func() {
				query("", fmt.Sprintf("SELECT a, b, %d x FROM r WHERE a >= 1", lit()))()
			}, [2]uint64{1, 2}, [2]uint64{1, 2}},
			{"named statement", query("q", "", value.NewInt(0)), [2]uint64{0, 1}, [2]uint64{0, 0}},
			{"prepare", func() {
				if _, err := srv.Prepare("", "p", fmt.Sprintf("SELECT a, %d y FROM r WHERE b = $1", lit())); err != nil {
					t.Fatal(err)
				}
			}, [2]uint64{1, 1}, [2]uint64{1, 1}},
			{"GET /explain of text", func() {
				if _, err := srv.Explain("", "", fmt.Sprintf("SELECT a FROM r WHERE a = %d", lit())); err != nil {
					t.Fatal(err)
				}
			}, [2]uint64{1, 1}, [2]uint64{1, 1}},
			{"GET /explain of a named statement", func() {
				if _, err := srv.Explain("", "q", ""); err != nil {
					t.Fatal(err)
				}
			}, [2]uint64{0, 0}, [2]uint64{0, 0}},
			{"EXPLAIN statement", query("", "EXPLAIN SELECT a FROM r WHERE a = 1"), [2]uint64{1, 1}, [2]uint64{1, 1}},
			{"ANALYZE statement", query("", "ANALYZE r"), [2]uint64{1, 1}, [2]uint64{1, 1}},
			{"syntax error", func() {
				if _, err := sqltest.Run(t.Context(), srv, "", "", "SELECT a FROM r WHERE a = ", nil, 0); err == nil {
					t.Fatal("syntax error accepted")
				}
			}, [2]uint64{1, 1}, [2]uint64{1, 1}},
		}
		for _, st := range steps {
			lexes, parses := count(st.run)
			if lexes != st.lexes[d] || parses != st.parses[d] {
				t.Errorf("distributed=%v %s: %d lex, %d parse; want %d and %d", distributed, st.name, lexes, parses, st.lexes[d], st.parses[d])
			}
		}
	}
}
