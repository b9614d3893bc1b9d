// Command talign is an interactive shell (and one-shot runner) for the
// temporal SQL dialect of the paper: load interval timestamped relations
// from CSV files, then run queries with ALIGN, NORMALIZE, ABSORB, outer
// joins and temporal aggregation; EXPLAIN shows the plan with the
// optimizer's row estimates.
//
// Usage:
//
//	talign [-q query] [-connect host:port] [name=file.csv ...]
//
// Without -q, talign reads statements from stdin, one per line (or
// semicolon-terminated blocks). The CSV layout is documented in package
// csvio: a "name:type,...,ts,te" header followed by data rows.
//
// Statements run through the public talign package: on an embedded
// talign://mem DB (talign://demo under -demo), or with -connect on a
// running talignd server over its wire-level row-streaming protocol,
// where the catalog lives on the server (name=file.csv arguments are
// rejected). Either way rows print in stream order, as they arrive, with
// the valid time as trailing ts and te columns.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"talign/internal/csvio"
)

func main() {
	query := flag.String("q", "", "run a single query and exit")
	demo := flag.Bool("demo", false, "preload the paper's hotel example relations r and p")
	connect := flag.String("connect", "", "connect to a talignd server (host:port or URL) instead of executing locally")
	flag.Parse()

	var cl *client
	if *connect != "" {
		if len(flag.Args()) > 0 {
			fatalf("-connect uses the server's catalog; load CSVs on the talignd side")
		}
		if *demo {
			fatalf("-connect uses the server's catalog; start talignd with -demo instead")
		}
		cl = newClient(*connect)
	} else {
		dsn := "talign://mem"
		if *demo {
			dsn = "talign://demo"
		}
		cl = newClient(dsn)
		for _, arg := range flag.Args() {
			parts := strings.SplitN(arg, "=", 2)
			if len(parts) != 2 {
				fatalf("argument %q is not name=file.csv", arg)
			}
			rel, err := csvio.ReadFile(parts[1])
			if err != nil {
				fatalf("loading %s: %v", parts[1], err)
			}
			if err := cl.db.Register(parts[0], rel); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("loaded %s: %d tuples, schema %s\n", parts[0], rel.Len(), rel.Schema)
		}
		if *demo {
			fmt.Println("demo relations loaded: r(n), p(a, mn, mx) — months since 2012/1")
		}
	}

	if *query != "" {
		cl.run(*query)
		return
	}

	fmt.Println("talign — temporal alignment SQL shell (end statements with ';', \\q quits)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for {
		if buf.Len() == 0 {
			fmt.Print("talign> ")
		} else {
			fmt.Print("   ...> ")
		}
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		if strings.TrimSpace(line) == "\\q" {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		text := buf.String()
		if !strings.Contains(text, ";") {
			continue
		}
		buf.Reset()
		for _, stmt := range strings.Split(text, ";") {
			if strings.TrimSpace(stmt) == "" {
				continue
			}
			cl.run(stmt)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
