package docscheck

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"runtime"
	"slices"
	"testing"
)

// deletedNames are names of deleted subsystems that may not come back. A
// row searches every file under the repository whose base name matches one
// of globs (grep -r --include), or, when paths is set, only those files.
var deletedNames = []struct {
	rule    string
	pattern string
	globs   []string
	paths   []string
}{
	// plan.Node has one build method and exec one operator family: none
	// of the names of the deleted row executor or of its build protocol
	// may come back.
	{"One executor", `DisableColumnar|NewToCol|colDisabled|noCol|exec\.Iterator|BuildCol\b`, []string{"*.go"}, nil},
	// ALIGN/NORMALIZE find every θ's groups through one index: start-
	// ordered runs, one per equi key (one run when θ has none), found by
	// binary search over the runs' head keys, built once per base relation
	// image and shared. The group strategies, their chooser, the flag that
	// forced the interval index, a second access path with its EXPLAIN
	// name, and a hash table of the keys beside the runs may not come back.
	{"One group construction", `GroupStrategy|GroupMerge|GroupNestLoop|GroupInterval|EnableIntervalIndex|GroupAccess|interval-index join`, []string{"*.go", "*.golden"}, nil},
	{"One group construction", `keyTable`, nil, []string{"internal/exec/col_fused.go"}},
	// A join finds its partners by θ's shape: hash on the equi keys (T
	// among them under MatchT), a nested loop when there are none. The
	// method enum, its enable flags and disable cost, the sort-merge
	// branch, the antijoin switch (the temporal antijoin always runs as the
	// gaps-only alignment) and the settable exchange gate may not come
	// back.
	{"One join access", `JoinMethod|MethodMerge|MethodNestLoop|EnableNestLoop|EnableHashJoin|EnableMergeJoin|EnableSort|EnableAntiJoinRewrite|ParallelMinRows|openMerge|DisableCost`, []string{"*.go"}, nil},
	// expr.Eval, over an Env that reads batch rows in place, is the one
	// per-row scalar evaluator (the flat filter kernel is its batch fast
	// path). The filter's closure compiler, the boxed-row scratch and the
	// copied comparison helpers may not come back.
	{"One evaluator", `boxRow|compileOperand|evalPred|rowPred|colVal|cmpTruth|flipOp|flipCmp|cmpF64|cmpI64`, []string{"*.go"}, nil},
	// Every query runs as one serial pipeline on its consumer's goroutine.
	// The intra-node exchange (splitter, exchange, their plan nodes and
	// rewrites), the parallelism flags and the weighted admission claim
	// may not come back.
	{"One width", `ExchangeNode|ColExchange|ColSplitter|ForceParallel|ShouldParallelize|PickParallel|ParJoin|ParAggregate|ExchangeMinRows|builtLeaf|partitionLeaf|MaxDOP\(|colsplitter|exchange\.worker`, []string{"*.go"}, nil},
	// ANALYZE sorts typed keys and the segment writer its permutation with
	// pdqsort: neither a reflective sort.Slice over boxed values nor a
	// stable merge sort may come back.
	{"Typed ANALYZE keys", `sort\.Slice|SortStableFunc`, nil, []string{"internal/stats/stats.go", "internal/storage/store.go"}},
	// Plans carry row estimates, not costs, and inner joins run in the
	// order written. The join reorderer, its memo, the cost method, its
	// constants and formulas, and EXPLAIN's cost text may not come back.
	{"One join order", `reorderJoin|maxReorderLeaves|maxDPLeaves|restoreOrder|reMemo|CPUTupleCost|CPUOperatorCost|SeqPageCost|TuplesPerPage|accessCost|estimateCost|Cost\(\) float64`, []string{"*.go"}, nil},
	{"One join order", `cost=`, []string{"*.go", "*.golden"}, nil},
	// The root BenchmarkFig* panels are the one reproducer of the paper's
	// figures: the second harness, its sweep package and their flags may
	// not come back.
	{"One figure reproducer", `cmd/experiments|benchkit`, []string{"*.go", "*.yml"}, nil},
	// Every statement runs through Server.StreamBatch and drains a
	// RowStream. The buffered runner, the one-shot engine with its private
	// catalog, and the one-line wrappers around the stream may not come
	// back. (talign.DB.Query, Stmt.Query and database/sql's QueryContext
	// are other types' methods.)
	{"One statement runner", `\(\w+ \*Server\) (Query|QueryContext|Stream)\(|QueryBatch|server\.Result\b|encodeRelation|sqlish\.Engine\b|type Engine\b|NewEngine|engineCatalog|StatsCatalog|MustQuery|StreamBudget|\(\w+ \*Prepared\) ExplainAnalyze\(|\(\w+ \*Statement\) IsExplain\(|RunParams`, []string{"*.go"}, nil},
	// A distributed fragment is the statement itself plus a cut of its
	// plan; the coordinator runs its own plan's nodes above the cut. The
	// AST-to-SQL fragment renderer, its $N renumbering, the cluster
	// manifest and the text-only cache-key normalizer may not come back.
	{"Fragments are plan cuts", `RenderDistBody|RenderDistFinal|RenderDistAgg|DistAggSQL|drender|mapParams|LoadManifest|sqlish\.Normalize\b|func Normalize\(sql`, []string{"*.go"}, nil},
	// The coordinator reads its strategy off the statement's own plan
	// (sqlish.Prepared.Place). The AST's second description of the
	// statement — its classifier, table collector, name resolver and
	// aggregate-split rules — may not come back.
	{"Strategy from the plan", `DistInfo|DistShape|DistKind|DistSelect|DistAnalyze|DistCreate|DistDrop|\bTableCol\b|collectBaseTables|\bdinst\b|\bdcol\b|\bdbind\b|\bdnode\b|\bdboundary\b|\bdwalker\b|distillSelect|selHasAgg|canAggSplit|havingSplittable|walkFrom|resolveIn\b`, []string{"*.go"}, nil},
	{"Strategy from the plan", `DistInfo|DistShape`, nil, []string{"docs/ARCHITECTURE.md", "docs/API.md", "docs/SQL.md", "README.md"}},
	// A worker plans a repartitioned fragment once, over its own tables,
	// and binds the staged relations per execution (exec.Rebind). The
	// catalog that resolved tables to staged names at planning time may
	// not come back.
	{"Staged shards are bound", `substCatalog`, []string{"*.go"}, nil},
}

// TestDeletedNamesStayGone fails on any line of the tree that names a
// deleted subsystem (deletedNames). This file, which spells every
// pattern, is not searched.
func TestDeletedNamesStayGone(t *testing.T) {
	root := repoRoot(t)
	_, self, _, _ := runtime.Caller(0)
	var tree []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && path != self {
			tree = append(tree, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read := map[string][]byte{}
	for _, row := range deletedNames {
		re := regexp.MustCompile(row.pattern)
		lits := literals(row.pattern)
		var files []string
		for _, p := range row.paths {
			files = append(files, filepath.Join(root, p))
		}
		if row.paths == nil {
			for _, path := range tree {
				for _, g := range row.globs {
					if ok, _ := filepath.Match(g, filepath.Base(path)); ok {
						files = append(files, path)
						break
					}
				}
			}
		}
		for _, path := range files {
			data, ok := read[path]
			if !ok {
				var err error
				if data, err = os.ReadFile(path); err != nil {
					t.Fatalf("%s: %v", row.rule, err)
				}
				read[path] = data
			}
			for _, start := range candidateLines(data, lits) {
				line, _, _ := bytes.Cut(data[start:], []byte{'\n'})
				if re.Match(line) {
					rel, _ := filepath.Rel(root, path)
					n := bytes.Count(data[:start], []byte{'\n'}) + 1
					t.Errorf("%s: %s:%d names a deleted subsystem (%s): %s", row.rule, rel, n, row.pattern, bytes.TrimSpace(line))
				}
			}
		}
	}
}

// candidateLines returns the start offsets, in order, of the lines of
// data that hold one of lits (every line for the literal ""). Finding
// the literals with bytes.Index keeps a row's regexp off nearly every
// line, which matters under the race detector: it instruments regexp,
// not bytes.Index.
func candidateLines(data []byte, lits []string) []int {
	var starts []int
	for _, lit := range lits {
		for off := 0; ; {
			i := bytes.Index(data[off:], []byte(lit))
			if i < 0 {
				break
			}
			starts = append(starts, bytes.LastIndexByte(data[:off+i], '\n')+1)
			end := bytes.IndexByte(data[off+i:], '\n')
			if end < 0 {
				break
			}
			off += i + end + 1
		}
	}
	slices.Sort(starts)
	return slices.Compact(starts)
}

// literals returns strings one of which every match of pattern contains:
// [""] when the pattern names none.
func literals(pattern string) []string {
	if re, err := syntax.Parse(pattern, syntax.Perl); err == nil {
		if lits := required(re.Simplify()); lits != nil {
			return lits
		}
	}
	return []string{""}
}

// required returns the literals of one node of a parsed pattern (see
// literals), or nil: a literal is its own; a concatenation takes those of
// the factor whose shortest literal is longest; an alternation needs a
// set from every branch.
func required(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return required(re.Sub[0])
	case syntax.OpConcat:
		var best []string
		shortest := func(lits []string) int {
			if len(lits) == 0 {
				return 0
			}
			return len(slices.MinFunc(lits, func(a, b string) int { return len(a) - len(b) }))
		}
		for _, sub := range re.Sub {
			if lits := required(sub); shortest(lits) > shortest(best) {
				best = lits
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			lits := required(sub)
			if lits == nil {
				return nil
			}
			all = append(all, lits...)
		}
		return all
	}
	return nil
}
