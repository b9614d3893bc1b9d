package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"talign"
)

// client wraps the public talign package's remote backend: every
// statement entered in the shell runs over talignd's streaming
// protocol, and rows print as they arrive instead of after the server
// finished buffering the result. Ctrl-C'ing the shell mid-query drops
// the connection, which cancels the query server-side.
type client struct {
	db *talign.DB
}

// newClient connects to a talignd server ("host:port" or a URL).
func newClient(base string) (*client, error) {
	dsn := base
	if !strings.Contains(dsn, "://") {
		dsn = "talignd://" + dsn
	}
	db, err := talign.Open(dsn)
	if err != nil {
		return nil, err
	}
	return &client{db: db}, nil
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
