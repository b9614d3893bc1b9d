// The quickstart example replays the paper's running hotel scenario
// (Example 1, Fig. 1): reservations R, price categories P, the temporal
// left outer join Q1 with a predicate over the reservations' original
// timestamps (extended snapshot reducibility), the temporal aggregation
// Q2, and a prepared statement with a $1 placeholder. It shows the
// algebra API, then the SQL dialect through the public talign package:
// an embedded DB (talign://mem) with both relations registered, one
// ad-hoc query and one prepared statement. The whole walkthrough also
// runs as an Example test (example_test.go), so
// `go test ./examples/quickstart` keeps this document honest.
package main

import (
	"context"
	"fmt"
	"strings"

	"talign"
	"talign/internal/core"
	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/relation"
)

func main() { run() }

// run executes the walkthrough, printing each step.
func run() {
	// Months since 2012/1: [0, 7) is [2012/1, 2012/8).
	reservations := relation.NewBuilder("n string").
		Row(0, 7, "Ann").
		Row(1, 5, "Joe").
		Row(7, 11, "Ann").
		MustBuild()
	prices := relation.NewBuilder("a int", "mn int", "mx int").
		Row(0, 5, 50, 1, 2).   // short term, winter
		Row(0, 5, 40, 3, 7).   // long term, winter
		Row(0, 12, 30, 8, 12). // permanent
		Row(9, 12, 50, 1, 2).  // short term, next winter
		Row(9, 12, 40, 3, 7).  // long term, next winter
		MustBuild()

	fmt.Println("Reservations R:")
	fmt.Print(reservations)
	fmt.Println("\nPrices P:")
	fmt.Print(prices)

	algebra := core.Default()

	// Q1 = R ⟕T_{Min ≤ DUR(R.T) ≤ Max} P. The predicate references R's
	// original valid time, so we first propagate it (extend operator).
	extended := core.MustExtend(reservations, "u")
	theta := expr.Between{X: expr.Dur(expr.C("u")), Lo: expr.C("mn"), Hi: expr.C("mx")}
	q1, err := algebra.LeftOuterJoin(extended, prices, theta)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nQ1 — fixed-price periods and periods to negotiate (ω):")
	fmt.Print(q1.SortCanonical())

	// Q2 = ϑT_AVG(DUR(R.T))(R): average reservation duration at each time.
	q2, err := algebra.Aggregation(extended, nil, []exec.AggSpec{
		{Func: exec.AggAvg, Arg: expr.Dur(expr.C("u")), Name: "avg_duration"},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nQ2 — average reservation duration over time:")
	fmt.Print(q2.SortCanonical())

	// The same Q1 through the SQL dialect of Sec. 6, nearly verbatim, on
	// an embedded DB. ORDER BY reproduces the canonical order (ω first).
	ctx := context.Background()
	db, err := talign.Open("talign://mem")
	if err != nil {
		panic(err)
	}
	defer db.Close()
	if err := db.Register("r", reservations); err != nil {
		panic(err)
	}
	if err := db.Register("p", prices); err != nil {
		panic(err)
	}
	sqlQ1, err := db.Query(ctx, `
		WITH r2 AS (SELECT Ts Us, Te Ue, * FROM r)
		SELECT ABSORB n, a, mn, mx, x.Ts, x.Te
		FROM (r2 ALIGN p ON DUR(Us, Ue) BETWEEN mn AND mx) x
		LEFT OUTER JOIN (p ALIGN r2 ON DUR(Us, Ue) BETWEEN mn AND mx) y
		ON DUR(Us, Ue) BETWEEN y.mn AND y.mx AND x.Ts = y.Ts AND x.Te = y.Te
		ORDER BY n, a, mn, mx, Ts`)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nQ1 via SQL (ALIGN + ABSORB):")
	printRows(sqlQ1)

	// Prepared statements: $N placeholders are planned once and bound per
	// execution — the path cmd/talignd serves over HTTP.
	prep, err := db.Prepare(ctx, "SELECT a, mn, mx FROM p WHERE a >= $1 ORDER BY a, mn, mx, Ts")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nPrepared with %d parameter(s); a >= 40:\n", prep.NumParams())
	byPrice, err := prep.Query(ctx, 40)
	if err != nil {
		panic(err)
	}
	printRows(byPrice)
}

// printRows drains a cursor in a relation's layout: the attributes, then
// one "(values) [ts, te)" line per row.
func printRows(rows *talign.Rows) {
	defer rows.Close()
	cols, types := rows.Columns(), rows.Types()
	n := len(cols) - 2 // the last two columns are ts and te
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = cols[i] + " " + types[i]
	}
	fmt.Printf("(%s) T\n", strings.Join(attrs, ", "))
	for rows.Next() {
		vals := rows.Values()
		cells := make([]string, n)
		for i := range cells {
			cells[i] = vals[i].String()
		}
		fmt.Printf("  (%s) [%v, %v)\n", strings.Join(cells, ", "), vals[n], vals[n+1])
	}
	if err := rows.Err(); err != nil {
		panic(err)
	}
}
