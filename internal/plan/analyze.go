package plan

import (
	"fmt"
	"strings"
	"sync"

	"talign/internal/exec"
	"talign/internal/relation"
)

// ExplainAnalyze builds the plan under ctx as an analyzed build — every
// node's operator behind a guard that counts the selected rows (and the
// batches) leaving it, the pipeline production runs otherwise — executes it
// to completion, and renders the tree with estimated vs actual
// cardinalities per node. Nodes that never built an operator during
// this execution render "actual rows=-". The result relation is returned
// alongside the rendering so callers can report the output cardinality
// without re-running the statement. A FusedAdjust node also says whether
// this execution built its group index or read one shared with the group
// side's image.
//
// ctx must be fresh: ExplainAnalyze makes it an analyzed one.
func ExplainAnalyze(n Node, ctx *ExecCtx) (string, *relation.Relation, error) {
	var mu sync.Mutex
	type segCount struct{ scanned, pruned int }
	segs := map[Node]segCount{}
	ctx.stats = map[Node]*exec.OpStats{}
	ctx.SegObserver = func(node Node, scanned, pruned int) {
		mu.Lock()
		sc := segs[node]
		sc.scanned += scanned
		sc.pruned += pruned
		segs[node] = sc
		mu.Unlock()
	}
	rel, err := RunCtx(n, ctx)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		actual := "-"
		note := ""
		if st, ok := ctx.stats[n]; ok {
			actual = fmt.Sprint(st.Rows.Load())
			switch {
			case st.IndexBuilt.Load() > 0:
				note = " (group index built)"
			case st.IndexShared.Load() > 0:
				note = " (group index shared)"
			}
		}
		mu.Lock()
		if sc, ok := segs[n]; ok {
			note = fmt.Sprintf(" (segments scanned=%d pruned=%d)", sc.scanned, sc.pruned)
		}
		mu.Unlock()
		fmt.Fprintf(&b, "%s  (rows=%.0f) (actual rows=%s)%s\n",
			n.Label(), n.Rows(), actual, note)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String(), rel, nil
}
