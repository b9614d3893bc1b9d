// Columnar build protocol. Nodes whose physical operator is vectorized
// implement colBuilder; Build methods try the columnar path first and
// finish it with a single exec.Materialize step at the row boundary, so
// a row parent keeps seeing rows while the pipeline underneath runs over
// colbatch vectors, and a columnar root (BuildColRoot) hands its batches
// to the cursor untouched. Scan, filter, project, limit and union have a
// row twin to fall back on. The adjustment, hash/nested-loop join,
// aggregate and absorb nodes have one operator each, a columnar one: their
// Build always builds it, bridging children that stay on the row path with
// exec.NewToCol (toColInput).
//
// A columnar root is built to be opened again and again: what a build
// reads from its ExecCtx — parameter frame, guard state — is bound by
// reference, so the owner runs the next execution by rewriting those and
// calling Open. What cannot be re-opened yet marks the ExecCtx while it is
// built (ExecCtx.Reusable).
//
// Three invariants keep the protocol safe:
//
//  1. BuildCol is consumption-free on refusal: every pure gate (flag,
//     instrumentation, expression shapes) is checked before any child is
//     built, so ok=false never leaves a half-consumed partition leaf
//     behind and the caller can fall back to the row path
//     unconditionally.
//  2. Multi-input nodes never refuse after the first child succeeded:
//     a row-only sibling is bridged with exec.NewToCol instead. Combined
//     with (1) this makes refusal propagation sound in exchange
//     fragments, where inputs are single-use partition streams.
//  3. In instrumented executions (EXPLAIN ANALYZE) every BuildCol
//     refuses — colDisabled checks ctx.Instrument — so each plan node is
//     built through Build and wrapped by the instrument hook exactly
//     once, and per-operator row counters keep their meaning. Twinned
//     nodes then run their row operator; the one-operator nodes still
//     run their columnar one, counted at its Materialize boundary.
package plan

import (
	"fmt"
	"math"

	"talign/internal/exec"
	"talign/internal/relation"
)

// colBuilder is implemented by plan nodes that can build a vectorized
// executor subtree. ok=false means the node (or its input chain) needs
// the row path; err aborts the whole build.
type colBuilder interface {
	BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error)
}

// buildColNode attempts the columnar build of n.
func buildColNode(n Node, ctx *ExecCtx) (exec.ColIterator, bool, error) {
	cb, ok := n.(colBuilder)
	if !ok {
		return nil, false, nil
	}
	return cb.BuildCol(ctx)
}

// colDisabled reports whether the columnar path is off for this build:
// by flag, or because the execution is instrumented (EXPLAIN ANALYZE
// counts rows through the row iterators).
func colDisabled(noCol bool, ctx *ExecCtx) bool {
	return noCol || (ctx != nil && ctx.Instrument != nil)
}

// materializeColBuild is the shared head of the candidate Build methods:
// it tries n's columnar build and, on success, finishes the chain at the
// row boundary. ok=false means the caller should run its row path.
func materializeColBuild(n Node, ctx *ExecCtx) (exec.Iterator, bool, error) {
	cit, ok, err := buildColNode(n, ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	return ctx.instrument(n, exec.NewMaterialize(cit)), true, nil
}

// BuildColRoot builds n as the root of a columnar pull: ok=true hands
// back the vectorized pipeline itself — behind the same panic,
// cancellation and budget boundary instrument gives a row root — for a
// consumer that ships batches instead of materializing rows, and may keep
// the pipeline for ctx's next execution while ctx.Reusable(). Refusal is
// consumption-free (invariant 1), so the caller falls back to n.Build.
func BuildColRoot(n Node, ctx *ExecCtx) (exec.ColIterator, bool, error) {
	cit, ok, err := buildColNode(n, ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	return exec.NewColGuard(&ctx.guard, cit), true, nil
}

// buildMaterialized is Build for a node with one operator, a columnar one:
// the operator always runs, finished at the row boundary, where an
// instrumented execution (EXPLAIN ANALYZE) counts its rows.
func buildMaterialized(n Node, ctx *ExecCtx, build func(*ExecCtx) (exec.ColIterator, error)) (exec.Iterator, error) {
	cit, err := build(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.instrument(n, exec.NewMaterialize(cit)), nil
}

// buildColOnly is BuildCol for such a node: it hands the operator to a
// columnar parent, refusing only on the pure colDisabled gate — keeping
// row parents (and their EXPLAIN ANALYZE counters) on the row path —
// never because of a strategy, key or θ shape.
func buildColOnly(noCol bool, ctx *ExecCtx, build func(*ExecCtx) (exec.ColIterator, error)) (exec.ColIterator, bool, error) {
	if colDisabled(noCol, ctx) {
		return nil, false, nil
	}
	cit, err := build(ctx)
	return cit, err == nil, err
}

// rowHint is n's estimated cardinality as a presize hint for the operator
// that will hold n's rows (the executor clamps it further).
func rowHint(n Node) int {
	return int(math.Min(math.Max(n.Rows(), 0), 1<<30))
}

// toColInput builds a child as the input of one of the stateful columnar
// operators (adjust, hash join, aggregate, absorb). A child that cannot
// build columnar is built as the usual (guarded) row subtree and adapted
// batch by batch. A columnar chain gets the resilience boundary a row
// operator's input has always had — exec.ColGuard: the cancellation
// check, budget charge and panic isolation per batch — because these
// operators pull whole inputs inside one Open or NextCol call, and a
// deadline must still be able to stop a build over a runaway join. A bare
// scan is exempt: it cannot run away, and the operators take its image
// over without copying only while they can see it is one.
func toColInput(n Node, ctx *ExecCtx) (exec.ColIterator, error) {
	cit, ok, err := buildColNode(n, ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		it, err := n.Build(ctx)
		if err != nil {
			return nil, err
		}
		if ctx != nil {
			ctx.singleUse = true
		}
		return exec.NewToCol(it), nil
	}
	if _, bare := cit.(*exec.ColScan); bare || ctx == nil {
		return cit, nil
	}
	return exec.NewColGuard(&ctx.guard, cit), nil
}

// BuildCol streams the relation's cached columnar image (zero-copy
// views, see relation.Columnar), or the segments that survive pruning,
// resolved at every Open under the frame's values of the moment.
func (s *ScanNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if colDisabled(s.noCol, ctx) {
		return nil, false, nil
	}
	if s.prunes() {
		cs := exec.NewColSegScan(s.Rel.Schema, nil)
		cs.Prune = func(dst []relation.Segment) []relation.Segment { return s.pruneSegments(ctx, dst) }
		return exec.ApplyColBatch(cs, s.batch), true, nil
	}
	return exec.ApplyColBatch(exec.NewColScan(s.Rel), s.batch), true, nil
}

// BuildCol evaluates the predicate over vectors, writing only the
// selection vector.
func (f *FilterNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if colDisabled(f.noCol, ctx) {
		return nil, false, nil
	}
	pred := ctx.bind(f.Pred)
	if !exec.ColFilterable(pred) {
		return nil, false, nil
	}
	in, ok, err := buildColNode(f.Input, ctx)
	if err != nil || !ok {
		return nil, ok, err
	}
	cf, ok := exec.NewColFilter(in, pred)
	if !ok {
		return nil, false, fmt.Errorf("plan: columnar filter refused a vetted predicate")
	}
	return exec.ApplyColBatch(cf, f.batch), true, nil
}

// BuildCol turns the projection into column pointer shuffling when every
// output expression is a plain column/TS/TE reference (TFromExpr also
// runs columnar for the PERIOD-over-int-columns shape).
func (pr *ProjectNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if colDisabled(pr.noCol, ctx) {
		return nil, false, nil
	}
	exprs := ctx.bindAll(pr.Exprs)
	texpr := ctx.bind(pr.TExpr)
	if !exec.ColProjectable(exprs, pr.TMode, texpr) {
		return nil, false, nil
	}
	in, ok, err := buildColNode(pr.Input, ctx)
	if err != nil || !ok {
		return nil, ok, err
	}
	cp, ok := exec.NewColProject(in, exprs, pr.out, pr.TMode, texpr)
	if !ok {
		return nil, false, fmt.Errorf("plan: columnar project refused a vetted expression list")
	}
	return cp, true, nil
}

// BuildCol caps the stream counting selected rows (not physical batch
// rows) and keeps the row operator's early exit.
func (l *LimitNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if colDisabled(l.noCol, ctx) || l.Offset < 0 {
		return nil, false, nil // negative offset: row path reports the error
	}
	in, ok, err := buildColNode(l.Input, ctx)
	if err != nil || !ok {
		return nil, ok, err
	}
	return exec.NewColLimit(in, l.N, l.Offset), true, nil
}

// BuildCol hands the fused adjust to a columnar parent.
func (n *AdjustmentNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	return buildColOnly(n.noCol, ctx, n.buildFused)
}

// BuildCol hands the hash join (keyless for the nested-loop method) to a
// columnar parent; the merge method is a row operator (a pure gate,
// checked before any child is built).
func (j *JoinNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if j.Method == MethodMerge {
		return nil, false, nil
	}
	return buildColOnly(j.noCol, ctx, j.buildHash)
}

// BuildCol hands the aggregate to a columnar parent.
func (a *AggNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	return buildColOnly(a.noCol, ctx, a.buildAgg)
}

// BuildCol hands the absorb to a columnar parent.
func (a *AbsorbNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	return buildColOnly(a.noCol, ctx, a.buildAbsorb)
}

// BuildCol streams the union with selection-vector dedup; intersect and
// except stay on the row path.
func (s *SetOpNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if colDisabled(s.noCol, ctx) || s.Kind != exec.UnionOp {
		return nil, false, nil
	}
	if !s.Left.Schema().UnionCompatible(s.Right.Schema()) {
		return nil, false, nil // row path reports the error
	}
	l, ok, err := buildColNode(s.Left, ctx)
	if err != nil || !ok {
		return nil, ok, err
	}
	r, err := toColInput(s.Right, ctx)
	if err != nil {
		return nil, false, err
	}
	op, err := exec.NewColSetOp(l, r)
	if err != nil {
		return nil, false, err
	}
	op.SizeHint = rowHint(s)
	return op, true, nil
}

// BuildCol scans the per-execution shared materialization columnar; the
// memoized relation is the same one the row path scans, so mixed row and
// columnar readers of one SharedNode stay consistent.
func (s *SharedNode) BuildCol(ctx *ExecCtx) (exec.ColIterator, bool, error) {
	if colDisabled(s.noCol, ctx) {
		return nil, false, nil
	}
	if ctx != nil {
		ctx.singleUse = true
	}
	rel, err := ctx.sharedGet(s, func() (*relation.Relation, error) {
		it, err := s.Input.Build(ctx)
		if err != nil {
			return nil, err
		}
		return exec.Collect(it)
	})
	if err != nil {
		return nil, false, err
	}
	return exec.ApplyColBatch(exec.NewColScan(rel), s.batch), true, nil
}

// BuildCol hands out the pre-built columnar partition stream, once.
func (l *builtLeaf) BuildCol(*ExecCtx) (exec.ColIterator, bool, error) {
	if l.colIt == nil {
		return nil, false, nil
	}
	it := l.colIt
	l.colIt = nil
	return it, true, nil
}
