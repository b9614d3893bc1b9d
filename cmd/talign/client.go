package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"talign"
)

// client runs the shell's statements on a talign.DB, embedded or
// remote: rows print as the cursor yields them, not after the result was
// buffered. On a remote DB, Ctrl-C'ing the shell mid-query drops the
// connection, which cancels the query server-side.
type client struct {
	db *talign.DB
}

// newClient opens dsn: a talign:// or talignd:// DSN, a URL, or a
// talignd server's "host:port".
func newClient(dsn string) *client {
	if !strings.Contains(dsn, "://") {
		dsn = "talignd://" + dsn
	}
	db, err := talign.Open(dsn)
	if err != nil {
		fatalf("%v", err)
	}
	return &client{db: db}
}

// run sends one statement and prints the streamed result.
func (c *client) run(sql string) {
	rows, err := c.db.Query(context.Background(), sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	defer rows.Close()
	if plan := rows.Plan(); plan != "" {
		fmt.Print(plan)
		if !strings.HasSuffix(plan, "\n") {
			fmt.Println()
		}
		return
	}
	fmt.Println(strings.Join(rows.Columns(), "\t"))
	// The cursor reads each frame's batch in place; a row is rendered
	// before the next Next, so nothing of it needs keeping.
	n := 0
	var cells []string
	for rows.Next() {
		cells = cells[:0]
		for _, v := range rows.Values() {
			cells = append(cells, v.String())
		}
		fmt.Println(strings.Join(cells, "\t"))
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Printf("(%d rows)\n", n)
}
