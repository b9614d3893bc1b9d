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
// With -connect, talign becomes a client of a running talignd server:
// statements run over its wire-level row-streaming protocol
// (rows print as the server produces them) and the catalog lives on the
// server (name=file.csv arguments are rejected).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqlish"
)

func main() {
	query := flag.String("q", "", "run a single query and exit")
	demo := flag.Bool("demo", false, "preload the paper's hotel example relations r and p")
	connect := flag.String("connect", "", "connect to a talignd server (host:port or URL) instead of executing locally")
	flag.Parse()

	// Client mode: statements go to a talignd server.
	var exec func(sql string)
	if *connect != "" {
		if len(flag.Args()) > 0 {
			fatalf("-connect uses the server's catalog; load CSVs on the talignd side")
		}
		if *demo {
			fatalf("-connect uses the server's catalog; start talignd with -demo instead")
		}
		cl, err := newClient(*connect)
		if err != nil {
			fatalf("%v", err)
		}
		exec = cl.run
	} else {
		eng := sqlish.NewEngine(plan.DefaultFlags())
		for _, arg := range flag.Args() {
			parts := strings.SplitN(arg, "=", 2)
			if len(parts) != 2 {
				fatalf("argument %q is not name=file.csv", arg)
			}
			rel, err := csvio.ReadFile(parts[1])
			if err != nil {
				fatalf("loading %s: %v", parts[1], err)
			}
			eng.Register(parts[0], rel)
			fmt.Printf("loaded %s: %d tuples, schema %s\n", parts[0], rel.Len(), rel.Schema)
		}
		if *demo {
			loadDemo(eng)
		}
		exec = func(sql string) { run(eng, sql) }
	}

	if *query != "" {
		exec(*query)
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
			exec(stmt)
		}
	}
}

func run(eng *sqlish.Engine, sql string) {
	rel, explain, err := eng.Query(sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	if explain != "" {
		fmt.Print(explain)
		return
	}
	printRelation(rel)
}

func printRelation(rel *relation.Relation) {
	out := rel.Clone().SortCanonical()
	names := make([]string, 0, out.Schema.Len()+1)
	for _, a := range out.Schema.Attrs {
		names = append(names, a.Name)
	}
	names = append(names, "t")
	fmt.Println(strings.Join(names, "\t"))
	for _, t := range out.Rows() {
		cells := make([]string, 0, len(t.Vals)+1)
		for _, v := range t.Vals {
			cells = append(cells, v.String())
		}
		cells = append(cells, t.T.String())
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("(%d rows)\n", out.Len())
}

func loadDemo(eng *sqlish.Engine) {
	r, p := dataset.Demo()
	eng.Register("r", r)
	eng.Register("p", p)
	fmt.Println("demo relations loaded: r(n), p(a, mn, mx) — months since 2012/1")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
