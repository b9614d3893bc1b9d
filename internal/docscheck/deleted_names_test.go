package docscheck

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
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
	read := map[string][]string{}
	for _, row := range deletedNames {
		re := regexp.MustCompile(row.pattern)
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
			lines, ok := read[path]
			if !ok {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: %v", row.rule, err)
				}
				lines = strings.Split(string(data), "\n")
				read[path] = lines
			}
			for i, line := range lines {
				if re.MatchString(line) {
					rel, _ := filepath.Rel(root, path)
					t.Errorf("%s: %s:%d names a deleted subsystem (%s): %s", row.rule, rel, i+1, row.pattern, strings.TrimSpace(line))
				}
			}
		}
	}
}
