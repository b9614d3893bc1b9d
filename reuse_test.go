package talign

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"talign/internal/relation"
	"talign/internal/server"
)

// TestParamKindFollowsBinding binds one prepared statement's $1 to an int,
// a float, a string and ω in turn, twice over, on both DSN schemes. Every
// execution after the first re-opens the pipeline the first one built
// (the server's pipeline counters say so), and the filter's flat kernel —
// chosen for an int the first time — must not survive into the executions
// that bind something else: 3 and 3.0 match the two ssn = 3 rows, "x" and
// ω match nothing.
func TestParamKindFollowsBinding(t *testing.T) {
	rel := relation.NewBuilder("ssn int", "pcn int").
		Row(0, 5, 3, 1).Row(5, 9, 3, 2).Row(0, 9, 4, 1).Row(2, 7, 5, 3).MustBuild()
	emb, err := Open("talign://mem")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { emb.Close() })
	if err := emb.Register("a", rel); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	srv.Catalog().Register("a", rel)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rem, err := Open("talignd://" + strings.TrimPrefix(ts.URL, "http://") + "?retry=0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rem.Close() })

	ctx := context.Background()
	for _, c := range []struct {
		db  *DB
		srv *server.Server
	}{{emb, emb.Server()}, {rem, srv}} {
		st, err := c.db.Prepare(ctx, "SELECT ssn, pcn FROM a WHERE ssn = $1")
		if err != nil {
			t.Fatal(err)
		}
		execs := 0
		for round := 0; round < 2; round++ {
			for _, b := range []struct {
				arg  any
				want int
			}{{int64(3), 2}, {3.0, 2}, {"x", 0}, {nil, 0}, {4.5, 0}, {int64(4), 1}} {
				rows, err := st.Query(ctx, b.arg)
				if err != nil {
					t.Fatalf("%s: $1 = %v: %v", c.db, b.arg, err)
				}
				got := 0
				for rows.Next() {
					got++
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s: $1 = %v: %v", c.db, b.arg, err)
				}
				rows.Close()
				execs++
				if got != b.want {
					t.Errorf("%s round %d: ssn = %#v returned %d rows, want %d", c.db, round, b.arg, got, b.want)
				}
			}
		}
		if built, reused := c.srv.PipelineStats(); built != 1 || int(reused) != execs-1 {
			t.Errorf("%s: %d executions built %d pipelines and reused %d, want 1 and %d", c.db, execs, built, reused, execs-1)
		}
	}
}
