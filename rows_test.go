package talign

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/value"
)

// ownedRowsRel is a relation big enough to span several executor batches
// at batch=2, with ω cells in its own data.
func ownedRowsRel() *relation.Relation {
	b := relation.NewBuilder("k int", "s string")
	for i := 0; i < 9; i++ {
		var s any = fmt.Sprintf("row-%d", i)
		if i%4 == 3 {
			s = nil
		}
		b.Row(int64(i), int64(i)+3, i%3, s)
	}
	return b.MustBuild()
}

// ownedRowsQueries cover the shapes a batch reaches the client in: a
// filter's selection vector over shared column storage, a hash join's
// gathered batch with ω padding, an aggregate, an absorb, and a row root.
var ownedRowsQueries = []string{
	"SELECT k, s, Ts, Te FROM t WHERE k >= 1",
	"SELECT x.k, x.s, y.s ys FROM t x LEFT JOIN (SELECT k, s FROM t WHERE k = 2) y ON x.k = y.k",
	"SELECT k, COUNT(s) c, MIN(s) m, Ts, Te FROM (t a NORMALIZE t b USING (k)) x GROUP BY k, Ts, Te",
	"SELECT ABSORB k, s, Ts, Te FROM t",
	"SELECT k, s FROM t ORDER BY s, k",
}

// TestRowsValuesAreOwned: the slices Rows.Values hands out stay intact
// across later Next calls and after Close, on both DSN schemes — the
// executor reuses its batches and the wire decoder its buffer, so a row
// that aliased either would change under the caller.
func TestRowsValuesAreOwned(t *testing.T) {
	rel := ownedRowsRel()
	emb, err := Open("talign://mem?batch=2")
	if err != nil {
		t.Fatal(err)
	}
	defer emb.Close()
	if err := emb.Register("t", rel); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	srv.Catalog().Register("t", rel)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rem, err := Open("talignd://" + strings.TrimPrefix(ts.URL, "http://") + "?batch=2")
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	for _, q := range ownedRowsQueries {
		var rendered [2][]string
		for i, db := range []*DB{emb, rem} {
			rows, err := db.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			var kept [][]value.Value // retained, not copied
			var want []string        // rendered while current
			for rows.Next() {
				kept = append(kept, rows.Values())
				want = append(want, fmt.Sprint(rows.Values()))
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			rows.Close()
			if len(kept) < 3 {
				t.Fatalf("%s: %d rows do not span batches of 2", q, len(kept))
			}
			for r := range kept {
				if got := fmt.Sprint(kept[r]); got != want[r] {
					t.Errorf("backend %d, %s: retained row %d reads %s after Close, was %s", i, q, r, got, want[r])
				}
			}
			rendered[i] = want
		}
		sort.Strings(rendered[0])
		sort.Strings(rendered[1])
		if fmt.Sprint(rendered[0]) != fmt.Sprint(rendered[1]) {
			t.Errorf("%s: embedded %v, remote %v", q, rendered[0], rendered[1])
		}
		if !strings.Contains(fmt.Sprint(rendered[0]), "ω") {
			t.Errorf("%s: no ω cell reached the client: %v", q, rendered[0])
		}
	}
}
