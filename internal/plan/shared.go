package plan

import (
	"talign/internal/exec"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/stats"
)

// SharedNode materializes its input once per execution and hands every
// other Build in the same execution a fresh scan over the cached result:
// a WITH-clause body referenced from several places in a statement is
// computed once. The memo lives on the ExecCtx, not the node, so a cached
// plan re-executed with different parameters (or concurrently)
// re-materializes per execution instead of serving stale rows.
type SharedNode struct {
	Input Node

	batch int
}

// Shared wraps input for reuse by every reference in one execution.
func (p *Planner) Shared(input Node) *SharedNode {
	return &SharedNode{Input: input, batch: p.Flags.BatchSize}
}

func (s *SharedNode) Schema() schema.Schema { return s.Input.Schema() }
func (s *SharedNode) Children() []Node      { return []Node{s.Input} }
func (s *SharedNode) Rows() float64         { return s.Input.Rows() }

// Stats passes the input's statistics through (materialization does not
// change the distribution).
func (s *SharedNode) Stats() *stats.Table { return NodeStats(s.Input) }

// Build scans the execution's materialization of the input, draining the
// input first if no other reader of ctx has. The memo is per execution, so
// the pipeline is single-use.
func (s *SharedNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	if ctx != nil {
		ctx.singleUse = true
	}
	rel, err := ctx.sharedGet(s, func() (*relation.Relation, error) {
		it, err := ctx.input(s.Input)
		if err != nil {
			return nil, err
		}
		return exec.CollectColumnar(it)
	})
	if err != nil {
		return nil, err
	}
	return exec.ApplyColBatch(exec.NewColScan(rel), s.batch), nil
}

func (s *SharedNode) Label() string { return "Materialize (shared)" }
