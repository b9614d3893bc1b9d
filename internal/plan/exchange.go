package plan

import (
	"fmt"
	"hash/maphash"
	"math"
	"runtime"

	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/stats"
)

// Exchange cost model constants.
const (
	// ExchangeStartupCost is charged per worker goroutine: splitter and
	// merge channel setup, scheduling.
	ExchangeStartupCost = 100 * CPUTupleCost
	// ExchangeRowCost is charged per row crossing a partition boundary
	// (hash routing on the way in, batch copy on the way out).
	ExchangeRowCost = CPUOperatorCost
)

// ExchangeNode is the logical exchange operator: it hash-partitions each
// source across DOP streams, instantiates the Fragment subplan once per
// partition, and merges the fragments' output. Sources are co-partitioned
// with a shared hash seed, so fragment i sees exactly the rows whose keys
// hash to partition i in every source — the invariant that makes
// partitioned joins, aggregations and plane sweeps correct.
//
// A nil key list for a source means "partition by the entire tuple
// (values and valid time)", the scheme used for the aligner's group
// construction, whose plane sweep is independent per left tuple.
type ExchangeNode struct {
	Sources []Node
	Keys    [][]expr.Expr
	DOP     int
	// Fragment builds the per-partition subplan from one leaf per source.
	// It is called DOP+1 times: once with placeholder leaves for cost
	// estimation and EXPLAIN, then once per partition at build time.
	Fragment func(parts []Node) (Node, error)

	// RowHint, when set, overrides the output-cardinality estimate. The
	// generic template extrapolation (fragment rows x DOP) undercounts
	// joins — each fragment sees 1/DOP of BOTH inputs, so the product
	// shrinks by DOP² — and the rewrite helpers know the serial plan's
	// estimate, which is the right answer for a partitioned operator.
	RowHint float64

	template Node
	batch    int
}

// Exchange builds the node under the planner's DOP. It returns an error if
// the fragment cannot be constructed.
func (p *Planner) Exchange(sources []Node, keys [][]expr.Expr, fragment func(parts []Node) (Node, error)) (*ExchangeNode, error) {
	dop := p.Flags.DOP
	if dop < 1 {
		dop = 1
	}
	if len(keys) != len(sources) {
		return nil, fmt.Errorf("plan: exchange has %d key lists for %d sources", len(keys), len(sources))
	}
	leaves := make([]Node, len(sources))
	for i, s := range sources {
		leaves[i] = &partitionLeaf{src: s, keys: keys[i], dop: dop}
	}
	tmpl, err := fragment(leaves)
	if err != nil {
		return nil, err
	}
	return &ExchangeNode{
		Sources:  sources,
		Keys:     keys,
		DOP:      dop,
		Fragment: fragment,
		template: tmpl,
		batch:    p.Flags.BatchSize,
	}, nil
}

func (e *ExchangeNode) Schema() schema.Schema { return e.template.Schema() }

// Children exposes the template fragment: EXPLAIN renders the exchange,
// the per-partition subplan below it, and the partitioned sources at the
// leaves.
func (e *ExchangeNode) Children() []Node { return []Node{e.template} }

// Rows: the serial plan's estimate when the rewrite helper provided it
// (partitioning does not change an operator's total output), otherwise
// every fragment produces roughly 1/DOP of the total.
func (e *ExchangeNode) Rows() float64 {
	if e.RowHint > 0 {
		return e.RowHint
	}
	return e.template.Rows() * float64(e.DOP)
}

// Cost: the fragments run concurrently, so the plan pays one fragment's
// cost (which already includes its 1/DOP share of the source cost) scaled
// by how much real concurrency the machine offers — on a single-core box
// DOP workers time-slice and the whole serial work is paid — plus the
// exchange overhead: rows crossing partition channels and per-worker
// startup. This is what makes the planner keep serial plans for small
// inputs (and any input on one core) even when DOP > 1.
func (e *ExchangeNode) Cost() float64 {
	var srcRows float64
	for _, s := range e.Sources {
		srcRows += s.Rows()
	}
	cores := float64(runtime.GOMAXPROCS(0))
	slowdown := float64(e.DOP) / math.Min(float64(e.DOP), cores)
	return e.template.Cost()*slowdown +
		(srcRows+e.Rows())*ExchangeRowCost +
		float64(e.DOP)*ExchangeStartupCost
}

func (e *ExchangeNode) Label() string {
	return fmt.Sprintf("Exchange (hash partition, dop=%d, %d sources)", e.DOP, len(e.Sources))
}

// Build routes every source through a splitter — rows go from the source
// vectors straight into per-partition batches — builds the fragment once
// per partition over its leaves and merges the fragments. Partitions are
// single-use, so the pipeline is.
func (e *ExchangeNode) Build(ctx *ExecCtx) (exec.ColIterator, error) {
	if ctx != nil {
		ctx.singleUse = true
	}
	// One shared seed per exchange: co-partitioned sources must agree on
	// where a key lands.
	seed := maphash.MakeSeed()
	var parts [][]exec.ColIterator
	fail := func(err error) (exec.ColIterator, error) {
		for _, ps := range parts { // the last Close of a splitter's partitions closes its source
			for _, p := range ps {
				p.Close()
			}
		}
		return nil, err
	}
	for si, src := range e.Sources {
		in, err := ctx.stream(src)
		if err != nil {
			return fail(err)
		}
		sp, err := exec.NewColSplitter(in, ctx.bindAll(e.Keys[si]), e.DOP, seed)
		if err != nil {
			return fail(err)
		}
		if e.batch > 0 {
			sp.SetBatchSize(e.batch)
		}
		ps := make([]exec.ColIterator, e.DOP)
		for i := range ps {
			ps[i] = sp.Partition(i)
		}
		parts = append(parts, ps)
	}
	frags := make([]exec.ColIterator, e.DOP)
	for i := range frags {
		leaves := make([]Node, len(e.Sources))
		for si, src := range e.Sources {
			leaves[si] = &builtLeaf{it: parts[si][i], sch: src.Schema(), rows: src.Rows() / float64(e.DOP)}
		}
		fn, err := e.Fragment(leaves)
		if err != nil {
			return fail(err)
		}
		if frags[i], err = ctx.fragment(e.template, fn, i > 0); err != nil {
			return fail(err)
		}
	}
	ex, err := exec.NewColExchange(frags)
	if err != nil {
		return fail(err)
	}
	return ex, nil
}

// fragment builds one partition's instance of an exchange's template. In an
// analyzed build the instance's nodes — the two trees are walked in
// lockstep — count into their template nodes' entries, so EXPLAIN ANALYZE
// shows per node what all the fragments did.
func (c *ExecCtx) fragment(template, instance Node, replica bool) (exec.ColIterator, error) {
	if c != nil && c.stats != nil {
		var pair func(t, n Node)
		pair = func(t, n Node) {
			if t == n {
				return // a subtree the fragments share
			}
			st := c.statsFor(t)
			c.mu.Lock()
			c.stats[n] = st
			c.mu.Unlock()
			if tc, nc := t.Children(), n.Children(); len(tc) == len(nc) {
				for i := range tc {
					pair(tc[i], nc[i])
				}
			}
		}
		pair(template, instance)
		defer func(outer bool) { c.replica = outer }(c.replica)
		c.replica = c.replica || replica
	}
	return c.input(instance)
}

// partitionLeaf stands for one partition of a source inside the template
// fragment: 1/DOP of the source's rows and cost.
type partitionLeaf struct {
	src  Node
	keys []expr.Expr
	dop  int
}

func (l *partitionLeaf) Schema() schema.Schema { return l.src.Schema() }
func (l *partitionLeaf) Children() []Node      { return []Node{l.src} }
func (l *partitionLeaf) Rows() float64         { return l.src.Rows() / float64(l.dop) }
func (l *partitionLeaf) Cost() float64 {
	// Routing cost is charged once, in ExchangeNode.Cost — not here, or
	// source rows would be billed twice.
	return l.src.Cost() / float64(l.dop)
}
func (l *partitionLeaf) Build(*ExecCtx) (exec.ColIterator, error) {
	return nil, fmt.Errorf("plan: partition leaf is a template node and cannot be built")
}
func (l *partitionLeaf) Label() string {
	by := "tuple"
	if l.keys != nil {
		by = fmt.Sprintf("%d keys", len(l.keys))
	}
	return fmt.Sprintf("Partition (hash by %s, 1/%d)", by, l.dop)
}

// builtLeaf hands an already-built partition stream to a fragment, once.
type builtLeaf struct {
	it   exec.ColIterator
	sch  schema.Schema
	rows float64
}

func (l *builtLeaf) Schema() schema.Schema { return l.sch }
func (l *builtLeaf) Children() []Node      { return nil }
func (l *builtLeaf) Rows() float64         { return l.rows }
func (l *builtLeaf) Cost() float64         { return l.rows * CPUTupleCost }
func (l *builtLeaf) Build(*ExecCtx) (exec.ColIterator, error) {
	if l.it == nil {
		return nil, fmt.Errorf("plan: partition iterator already consumed")
	}
	it := l.it
	l.it = nil
	return it, nil
}
func (l *builtLeaf) Label() string { return "PartitionSource" }

// SharedNode materializes its input once per execution and hands every
// other Build in the same execution a fresh scan over the cached result.
// It serves two roles: the broadcast side of a parallel fragment (DOP
// fragments each scan the same materialized relation instead of
// re-executing the subtree) and WITH-clause bodies referenced from several
// places in a statement. The memo lives on the ExecCtx, not the node, so a
// cached plan re-executed with different parameters (or concurrently)
// re-materializes per execution instead of serving stale rows.
type SharedNode struct {
	Input Node

	batch int
}

// Shared wraps input for reuse across exchange fragments.
func (p *Planner) Shared(input Node) *SharedNode {
	return &SharedNode{Input: input, batch: p.Flags.BatchSize}
}

func (s *SharedNode) Schema() schema.Schema { return s.Input.Schema() }
func (s *SharedNode) Children() []Node      { return []Node{s.Input} }
func (s *SharedNode) Rows() float64         { return s.Input.Rows() }

// Cost charges the input once plus a scan per reuse; without knowing the
// reuse count here, it reports the single-execution cost (the exchange's
// template accounts for one fragment).
func (s *SharedNode) Cost() float64 {
	return s.Input.Cost() + s.Input.Rows()*CPUTupleCost
}

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

// MaxDOP reports the widest exchange in a plan: the maximum number of
// worker goroutines one execution can occupy (1 for fully serial plans,
// even when planned under DOP > 1 — the cost model may have kept every
// operator serial). The server's admission gate charges this weight per
// query, so serial plans cost 1 unit regardless of the session's DOP
// setting.
func MaxDOP(n Node) int {
	max := 1
	var walk func(Node)
	walk = func(n Node) {
		if e, ok := n.(*ExchangeNode); ok && e.DOP > max {
			max = e.DOP
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return max
}

// ShouldParallelize reports whether the planner should attempt an exchange
// rewrite for an input of the given estimated cardinality. force means the
// configuration demands the rewrite unconditionally (Flags.ForceParallel),
// which also skips the cost comparison; otherwise the attempt requires
// DOP > 1, a machine with real concurrency to offer, and rows clearing
// ExchangeMinRows — and the rewrite still has to win on estimated cost.
func (p *Planner) ShouldParallelize(rows float64) (attempt, force bool) {
	if p.Flags.DOP <= 1 {
		return false, false
	}
	if p.Flags.ForceParallel {
		return true, true
	}
	if runtime.GOMAXPROCS(0) < 2 {
		// Workers would only time-slice one core: routing and channel
		// overhead cannot be bought back.
		return false, false
	}
	return rows >= ExchangeMinRows, false
}

// ParJoin plans a join and, when the planner's DOP and the estimated
// cardinalities justify it, wraps it in a hash-partitioned exchange: both
// inputs are co-partitioned on the equi-join keys and DOP independent
// joins run in parallel. The decision is cost-based: the exchange plan is
// kept only when its estimated cost beats the serial join's.
func (p *Planner) ParJoin(l, r Node, cond expr.Expr, typ exec.JoinType, matchT bool) Node {
	j := p.Join(l, r, cond, typ, matchT)
	if len(j.keys) == 0 {
		return j
	}
	attempt, force := p.ShouldParallelize(l.Rows() + r.Rows())
	if !attempt {
		return j
	}
	lk := make([]expr.Expr, len(j.keys))
	rk := make([]expr.Expr, len(j.keys))
	for i, k := range j.keys {
		lk[i] = k.Left
		rk[i] = k.Right
	}
	ex, err := p.Exchange([]Node{l, r}, [][]expr.Expr{lk, rk}, func(parts []Node) (Node, error) {
		return p.Join(parts[0], parts[1], cond, typ, matchT), nil
	})
	return PickParallel(j, ex, err, force)
}

// PickParallel is the shared tail of every exchange rewrite: keep the
// exchange plan when it was built successfully and either the rewrite is
// forced or its estimated cost beats the serial plan's; otherwise fall
// back to the serial plan.
func PickParallel(serial Node, ex *ExchangeNode, err error, force bool) Node {
	if err != nil || ex == nil {
		return serial
	}
	ex.RowHint = serial.Rows()
	if !force && ex.Cost() >= serial.Cost() {
		return serial
	}
	return ex
}

// ParAggregate plans an aggregation, parallelized over an exchange when
// there are grouping keys to partition on (groups never span partitions,
// so no re-aggregation pass is needed).
func (p *Planner) ParAggregate(input Node, groupBy []expr.Expr, names []string, groupByT bool, aggs []exec.AggSpec) (Node, error) {
	agg, err := p.Aggregate(input, groupBy, names, groupByT, aggs)
	if err != nil {
		return nil, err
	}
	if len(groupBy) == 0 && !groupByT {
		return agg, nil
	}
	attempt, force := p.ShouldParallelize(input.Rows())
	if !attempt {
		return agg, nil
	}
	keys := make([]expr.Expr, 0, len(groupBy)+1)
	keys = append(keys, groupBy...)
	if groupByT {
		keys = append(keys, expr.TPeriod{})
	}
	ex, err := p.Exchange([]Node{input}, [][]expr.Expr{keys}, func(parts []Node) (Node, error) {
		return p.Aggregate(parts[0], groupBy, names, groupByT, aggs)
	})
	return PickParallel(agg, ex, err, force), nil
}
