package sqlish

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"talign/internal/expr"
	"talign/internal/opt"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/stats"
	"talign/internal/value"
)

// The statement pipeline has four explicit stages:
//
//	Parse    — lex + parse the SQL text into an AST (Statement)
//	Analyze  — resolve names against a Catalog, type-check, extract
//	           placeholders
//	Plan     — build the immutable plan.Node tree (row estimates and
//	           the optimizer's rewrites happen here)
//	Execute  — bind $N parameter values and drain the plan
//
// Parse is independent of any catalog; Analyze+Plan are fused in Prepare
// (the analyzer emits plan nodes directly); Execute is Prepared.Execute.
// A Prepared is immutable and safe for concurrent Execute calls, which is
// what the server's plan cache relies on.
//
// Parse and Prepare are the library path: the statement plans with its
// own literals. The server enters through ParseLifted (lift.go), which
// keys a statement by its shape and defers the parse to the first use of
// the AST, so that a plan-cache hit costs a lex.

// Statement is a parsed but not yet analyzed statement: the output of the
// Parse stage. It can be prepared against different catalogs, and is safe
// for concurrent use.
type Statement struct {
	// SQL is the original statement text.
	SQL string

	// ast is the parse tree. ParseLifted defers it for every statement that
	// is not an EXPLAIN, ANALYZE, CREATE or DROP (deferred, immutable): toks
	// then holds the lifted token stream until tree parses it, once,
	// whoever asks first.
	ast      *statement
	deferred bool
	toks     []token
	parse    sync.Once
	perr     error

	// shape is the plan-cache key text (ShapeKey; "" after a plain Parse).
	// nuser and lifted are set by ParseLifted only (see lift.go): the
	// highest $N the text itself uses, and the values of the literals
	// lifted into the hidden slots $nuser+1.. in slot order. Immutable:
	// plans prepared from the statement point into lifted.
	shape  string
	nuser  int
	lifted []value.Value
}

// tree returns the parse tree, parsing a deferred statement on first use.
func (st *Statement) tree() (*statement, error) {
	if st.deferred {
		st.parse.Do(func() {
			st.ast, st.perr = parseTokens(st.SQL, st.toks)
			st.toks = nil
		})
	}
	return st.ast, st.perr
}

// Parse runs the first pipeline stage: it lexes and parses sql into a
// Statement without touching any catalog.
func Parse(sql string) (*Statement, error) {
	ast, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return &Statement{SQL: sql, ast: ast}, nil
}

// AnalyzeTarget returns the table name of a standalone ANALYZE statement;
// ok is false for every other statement kind. ANALYZE mutates catalog
// statistics and is executed by the server, never through Prepare.
func (st *Statement) AnalyzeTarget() (name string, ok bool) {
	if st.deferred {
		return "", false
	}
	return st.ast.Analyze, st.ast.Analyze != ""
}

// CreateTarget returns the table name and CSV path of a CREATE TABLE
// ... FROM CSV statement; ok is false for every other statement kind.
// CREATE TABLE mutates the catalog (and the data directory, when the
// server runs with one) and is executed by the server, never through
// Prepare.
func (st *Statement) CreateTarget() (name, csvPath string, ok bool) {
	if st.deferred || st.ast.Create == nil {
		return "", "", false
	}
	return st.ast.Create.Name, st.ast.Create.CSVPath, true
}

// DropTarget returns the table name of a DROP TABLE statement; ok is
// false for every other statement kind. Like CREATE TABLE, it is
// executed by the server, never through Prepare.
func (st *Statement) DropTarget() (name string, ok bool) {
	if st.deferred {
		return "", false
	}
	return st.ast.Drop, st.ast.Drop != ""
}

// Catalog resolves lower-cased table names during the Analyze stage.
// Implementations must be safe for concurrent use; the relations returned
// must be treated as immutable snapshots (the engine never mutates them,
// and cached plans keep referencing them).
type Catalog interface {
	// Lookup returns the relation registered under the (lower-case) name.
	Lookup(name string) (*relation.Relation, bool)
}

// MapCatalog is a Catalog over a plain map. The zero value is an empty
// catalog; keys must be lower-case (Register takes care of that). It is
// NOT safe for concurrent mutation — the server package provides a
// versioned copy-on-write catalog for shared use.
type MapCatalog map[string]*relation.Relation

// Lookup implements Catalog.
func (m MapCatalog) Lookup(name string) (*relation.Relation, bool) {
	rel, ok := m[strings.ToLower(name)]
	return rel, ok
}

// Register adds (or replaces) a named relation.
func (m MapCatalog) Register(name string, rel *relation.Relation) {
	m[strings.ToLower(name)] = rel
}

// Dep is one catalog entry a Prepared was built from: the relation the
// analyzer resolved the (lower-case) table Name to and the statistics the
// planner read for it (nil when the catalog had none). The plan is
// current exactly while the catalog still answers Name with these two
// pointers; the entry pins them, so neither address can be reused while
// a plan that recorded it exists.
type Dep struct {
	Name  string
	Rel   *relation.Relation
	Stats *stats.Table
}

// depRecorder is the catalog a statement is prepared against: it passes
// the analyzer's Lookup and the planner's TableStats (both ask by
// lower-case name) through to the real catalog and records the answers.
type depRecorder struct {
	cat   Catalog
	stats plan.StatsSource // nil when cat resolves no statistics
	deps  []Dep
}

func (r *depRecorder) dep(name string) *Dep {
	i := slices.IndexFunc(r.deps, func(d Dep) bool { return d.Name == name })
	if i < 0 {
		i, r.deps = len(r.deps), append(r.deps, Dep{Name: name})
	}
	return &r.deps[i]
}

// Lookup implements Catalog.
func (r *depRecorder) Lookup(name string) (*relation.Relation, bool) {
	if r.cat == nil {
		return nil, false
	}
	rel, ok := r.cat.Lookup(name)
	if ok {
		r.dep(name).Rel = rel
	}
	return rel, ok
}

// TableStats implements plan.StatsSource. Only tables the analyzer
// resolved have statistics: a scan of a computed relation (the optimizer's
// empty WHERE FALSE scan) names no catalog entry.
func (r *depRecorder) TableStats(name string) *stats.Table {
	i := slices.IndexFunc(r.deps, func(d Dep) bool { return d.Name == name })
	if r.stats == nil || i < 0 {
		return nil
	}
	r.deps[i].Stats = r.stats.TableStats(name)
	return r.deps[i].Stats
}

// Prepared is an analyzed and planned statement: the output of the
// Analyze + Plan stages. Its plan is immutable — Execute and Stream may be
// called concurrently from many goroutines, each execution binding its own
// parameter values — and it pins the catalog entries it was planned
// against (Deps): a plan is reused only while the catalog still holds
// exactly those entries, which is what the server's plan cache checks.
//
// A Prepared also owns the executor trees built from its plan (pipeline,
// cursor.go): a streamed execution borrows an idle one or builds one, and
// gives it back at a clean end. A purged plan takes its pipelines along.
type Prepared struct {
	// SQL is the original statement text.
	SQL string
	// NumParams is the number of $N placeholders the statement takes: the
	// highest index seen (an index the text skips still takes a value,
	// which nothing reads). Slots ParseLifted lifted literals into do not
	// count: they are invisible to the caller.
	NumParams int

	// lifted holds the values of the literals lifted out of the statement
	// the plan was prepared from; Stream and Execute bind them, StreamFor
	// binds another statement's.
	lifted []value.Value

	deps []Dep // every base table the plan reads, as the catalog resolved it

	root           plan.Node
	cols, types    []string // root's ResultColumns, listed once per plan
	paramCols      []int    // per result column the $N it is exactly, 0 for none; nil when none is
	explain        bool
	explainAnalyze bool

	mu   sync.Mutex
	idle []*pipeline        // built, re-openable, not running: at most GOMAXPROCS
	cuts [numCuts]*Prepared // the memoized subtrees at each cut (Cut)
}

// Deps lists the catalog entries the plan was built from, one per base
// table it reads (WITH names are not catalog entries). The slice is
// shared: callers must not modify it.
func (p *Prepared) Deps() []Dep { return p.deps }

// DependsOn reports whether the plan reads the (lower-case) table name.
func (p *Prepared) DependsOn(name string) bool {
	return slices.ContainsFunc(p.deps, func(d Dep) bool { return d.Name == name })
}

// Prepare runs Parse, Analyze and Plan in one call.
func Prepare(sql string, cat Catalog, flags plan.Flags) (*Prepared, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return st.Prepare(cat, flags)
}

// Prepare runs the Analyze, Plan and Optimize stages: names are resolved
// against cat, WITH clauses become shared subplans, the planner (under
// flags, fed by the catalog's table statistics when cat implements
// plan.StatsSource) estimates every node's rows, and — unless
// flags.DisableOptimizer — the rule-based optimizer rewrites the plan
// (predicate pushdown, projection pruning, constant folding). Inner joins
// run in the order written. The resulting plan is generic over its $N
// placeholders.
func (st *Statement) Prepare(cat Catalog, flags plan.Flags) (*Prepared, error) {
	if name, ok := st.AnalyzeTarget(); ok {
		return nil, fmt.Errorf("sqlish: ANALYZE %s cannot be prepared; execute it through the server", name)
	}
	if name, _, ok := st.CreateTarget(); ok {
		return nil, fmt.Errorf("sqlish: CREATE TABLE %s cannot be prepared; execute it through the server", name)
	}
	if name, ok := st.DropTarget(); ok {
		return nil, fmt.Errorf("sqlish: DROP TABLE %s cannot be prepared; execute it through the server", name)
	}
	ast, err := st.tree()
	if err != nil {
		return nil, err
	}
	rec := &depRecorder{cat: cat}
	rec.stats, _ = cat.(plan.StatsSource)
	a := newAnalyzer(rec, flags)
	a.src, a.nuser, a.lifted = st.SQL, st.nuser, st.lifted
	for _, w := range ast.With {
		node, _, err := a.buildQueryExpr(w.Query)
		if err != nil {
			return nil, err
		}
		a.with[strings.ToLower(w.Name)] = a.planner.Shared(node)
	}
	node, _, err := a.buildQueryExpr(ast.Body)
	if err != nil {
		return nil, err
	}
	if node, err = a.orderBy(node, ast.orderLimit); err != nil {
		return nil, err
	}
	if !flags.DisableOptimizer {
		node = opt.Optimize(node, a.planner)
	}
	// LIMIT sits above ORDER BY and outside the optimizer: its executor
	// exits early, which is what lets a cursor stop the pipeline instead of
	// draining it.
	node = a.limit(node, ast.orderLimit)
	// Hidden slots are numbered from the parser's count of the caller's
	// placeholders; the two counts agree on every statement that analyzes,
	// and taking the larger keeps the slots aligned regardless.
	numParams := max(a.maxParam, st.nuser)
	cols, types := node.Schema().ResultColumns()
	return &Prepared{
		SQL:            st.SQL,
		NumParams:      numParams,
		lifted:         st.lifted,
		deps:           rec.deps,
		root:           node,
		cols:           cols,
		types:          types,
		paramCols:      paramColumns(node),
		explain:        ast.Explain,
		explainAnalyze: ast.ExplainAnalyze,
	}, nil
}

// IsExplain reports whether the statement was an EXPLAIN; Execute refuses
// such statements (use Explain instead).
func (p *Prepared) IsExplain() bool { return p.explain }

// IsExplainAnalyze reports whether the statement was an EXPLAIN ANALYZE;
// such statements run through ExplainAnalyzeContext, which executes the
// plan and reports actual row counts.
func (p *Prepared) IsExplainAnalyze() bool { return p.explainAnalyze }

// Schema describes the result columns (parameter-typed columns report
// kind ω until execution).
func (p *Prepared) Schema() schema.Schema { return p.root.Schema() }

// Columns is Schema().ResultColumns(), listed once per plan; the slices
// are shared and must not be modified. A column that is exactly $N has
// kind ω in the plan; given an execution's params, its type is the kind
// of the value bound to it.
func (p *Prepared) Columns(params ...value.Value) (cols, types []string) {
	if p.paramCols == nil || len(params) == 0 {
		return p.cols, p.types
	}
	types = slices.Clone(p.types)
	for i, n := range p.paramCols {
		if n > 0 && n <= len(params) {
			types[i] = params[n-1].Kind().String()
		}
	}
	return p.cols, types
}

// paramColumns lists, per result column of root, the $N the column is
// exactly (0 for none); nil when no column is one. A column is followed
// down through the nodes that pass columns on, a join's concatenation
// included, to the projection that computes it.
func paramColumns(root plan.Node) []int {
	var out []int
	for col := range root.Schema().Len() {
		n, c := root, col
		for n != nil {
			switch x := n.(type) {
			case *plan.LimitNode, *plan.SortNode, *plan.FilterNode, *plan.DistinctNode, *plan.AbsorbNode:
				n = n.Children()[0]
			case *plan.JoinNode:
				if n = x.Left; c >= x.Left.Schema().Len() {
					n, c = x.Right, c-x.Left.Schema().Len()
				}
			case *plan.ProjectNode:
				n = nil
				if e, ok := x.Exprs[c].(expr.ColIdx); ok && e.Idx >= 0 {
					n, c = x.Input, e.Idx
				} else if prm, ok := x.Exprs[c].(expr.Param); ok && prm.Peek == nil {
					if out == nil {
						out = make([]int, root.Schema().Len())
					}
					out[col] = prm.Idx
				}
			default:
				n = nil
			}
		}
	}
	return out
}

// Explain renders the plan with the optimizer's row estimates;
// unbound placeholders render as $N.
func (p *Prepared) Explain() string { return plan.Explain(p.root) }

// ExplainAnalyzeContext executes the plan under ctx with params bound to
// $1..$N, counting every operator's actual output rows, and renders the
// tree with estimated vs actual cardinalities. It is only valid for
// EXPLAIN ANALYZE statements and is safe to call concurrently (each call
// builds and runs a fresh executor tree); cancelling ctx aborts the
// measured execution cooperatively.
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context, params ...value.Value) (string, error) {
	if !p.explainAnalyze {
		return "", requestError("statement is not EXPLAIN ANALYZE")
	}
	args, err := bindArgs(p.NumParams, params, p.lifted)
	if err != nil {
		return "", err
	}
	text, _, err := plan.ExplainAnalyze(p.root, plan.NewExecCtxContext(ctx, args...))
	return text, err
}

// Execute runs the Execute stage: it binds params to $1..$N (exactly
// NumParams values are required), builds a fresh executor tree and drains
// it. Execute is safe to call concurrently.
func (p *Prepared) Execute(params ...value.Value) (*relation.Relation, error) {
	if p.explain {
		return nil, requestError("cannot Execute an EXPLAIN statement")
	}
	args, err := bindArgs(p.NumParams, params, p.lifted)
	if err != nil {
		return nil, err
	}
	return plan.RunCtx(p.root, plan.NewExecCtx(args...))
}

// ParseNormalized runs the Parse stage and derives the normalized
// plan-cache key text from ONE shared lex of sql: parse errors point
// into the original statement text (line/col of the offending token),
// and the caller gets the cache key without lexing again. Nothing is
// lifted: the statement plans with its own literals, and its ShapeKey is
// the normalized text. The server uses it where a plan must render the
// text as written (GET /explain); statements it executes go through
// ParseLifted.
func ParseNormalized(sql string) (*Statement, string, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, "", err
	}
	ast, err := parseTokens(sql, toks)
	if err != nil {
		return nil, "", err
	}
	norm := renderTokens(sql, toks, nil)
	return &Statement{SQL: sql, ast: ast, shape: norm}, norm, nil
}
