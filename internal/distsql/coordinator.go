package distsql

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"talign/internal/colbatch"
	"talign/internal/csvio"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/server"
	"talign/internal/sqlish"
	"talign/internal/value"
	"talign/internal/wire"
)

// strategy is the distributed execution shape chosen for one statement.
type strategy int

const (
	// stratScatter runs the whole statement on every worker and
	// concatenates the streams in worker order.
	stratScatter strategy = iota
	// stratScatterFinal runs the plan's body on the workers and the
	// ORDER BY/LIMIT above it, or a global dedup pass, over the gathered
	// results.
	stratScatterFinal
	// stratPartialAgg runs the plan up to its aggregation on the workers
	// and re-aggregates the gathered partials.
	stratPartialAgg
	// stratGatherAll reassembles every referenced table and runs the
	// original statement on the coordinator — the universal fallback.
	stratGatherAll
)

func (s strategy) String() string {
	return [...]string{stratScatter: "scatter", stratScatterFinal: "scatter+final", stratPartialAgg: "partial-aggregate", stratGatherAll: "gather-all"}[s]
}

// tableDep is one table a distributed plan was built from: the schema
// stub the coordinator's catalog held for it and the column its shards
// were hashed on. Restaging a table replaces the stub, so the pointer
// covers schema and data generation alike.
type tableDep struct {
	name string
	stub *relation.Relation
	col  string
}

// distPlan is one cached distributed plan: the strategy decision and the
// coordinator's own plan of the statement. Every fragment is the
// statement itself plus the cut of its plan the workers answer; final
// strategies run the coordinator's nodes above the cut over the gathered
// answers.
type distPlan struct {
	// deps holds one entry per table of the statement; the plan is served
	// only while every one still matches (Coordinator.current).
	deps []tableDep

	strategy  strategy
	cut       sqlish.Cut
	redoDedup bool
	repart    map[string]string // table -> partition column it must be re-hashed on

	prep    *sqlish.Prepared
	final   string        // the nodes above the cut, for EXPLAIN
	explain string        // the EXPLAIN text, rendered once
	bodySch schema.Schema // schema of the gathered worker results (final strategies)
}

// Coordinator implements server.Distributor over a static worker
// topology: it owns the shard map (which partition column each table is
// currently hashed on), the distributed-plan cache and the worker
// client, and plugs into the server through SetDistributor.
type Coordinator struct {
	srv     *server.Server
	topo    Topology
	flags   plan.Flags
	flagsFP string
	client  *workerClient

	// partOverride maps table -> partition column (talignd's -partition);
	// tables absent default to their first column.
	partOverride map[string]string

	// parts is the shard map, table -> current partition column. It is
	// copy-on-write: setPart replaces it under mu, readers take the
	// current map and never see it change.
	mu    sync.Mutex
	parts map[string]string

	// cache is the server's plan cache type over distributed plans: keyed
	// on shape + flags, valid per table (see current). The topology is
	// fixed for a coordinator's lifetime, so it is no part of either.
	cache *server.PlanCache[*distPlan]
	qid   atomic.Uint64

	queries       atomic.Uint64
	scatters      atomic.Uint64
	scatterFinals atomic.Uint64
	partialAggs   atomic.Uint64
	repartitions  atomic.Uint64
	gatherAlls    atomic.Uint64
}

// New builds a coordinator over srv and the worker topology. flags must
// be the planner flags srv was configured with (the coordinator plans
// every statement under the same flags as its workers). partition carries the
// per-table partition-column overrides (nil for defaults).
func New(srv *server.Server, topo Topology, flags plan.Flags, partition map[string]string) *Coordinator {
	po := map[string]string{}
	for t, col := range partition {
		po[strings.ToLower(t)] = strings.ToLower(col)
	}
	return &Coordinator{
		srv:          srv,
		topo:         topo,
		flags:        flags,
		flagsFP:      flags.Fingerprint(),
		client:       newWorkerClient(topo),
		partOverride: po,
		parts:        map[string]string{},
		cache:        server.NewPlanCache[*distPlan](0),
	}
}

// Attach installs the coordinator as srv's distributor.
func (c *Coordinator) Attach() { c.srv.SetDistributor(c) }

// Topology returns the coordinator's worker set.
func (c *Coordinator) Topology() Topology { return c.topo }

// shardMap returns the current shard map; it is never mutated.
func (c *Coordinator) shardMap() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parts
}

// setPart records (col != "") or forgets (col == "") a table's partition
// column and purges the distributed plans over that table: its stub, its
// shards or its partitioning just changed, and a cached plan pins the
// stub it was built from.
func (c *Coordinator) setPart(table, col string) {
	c.mu.Lock()
	next := maps.Clone(c.parts)
	if col == "" {
		delete(next, table)
	} else {
		next[table] = col
	}
	c.parts = next
	c.mu.Unlock()
	c.cache.Invalidate(func(pl *distPlan) bool {
		return slices.ContainsFunc(pl.deps, func(d tableDep) bool { return d.name == table })
	})
}

// shardedView is a catalog snapshot in which only the tables of the
// shard map resolve: a statement that reads any other table does not
// prepare there, and the coordinator declines it to the local pipeline
// (which also produces the proper error for unknown tables).
type shardedView struct {
	server.Snapshot
	parts map[string]string
}

// Lookup implements sqlish.Catalog.
func (v shardedView) Lookup(name string) (*relation.Relation, bool) {
	if _, ok := v.parts[name]; !ok {
		return nil, false
	}
	return v.Snapshot.Lookup(name)
}

// DistributeTable hash-partitions rel by its assigned (or first)
// column, stages one shard per worker under the table's real name,
// registers a schema-only stub locally (the coordinator plans
// against schemas, never rows) and records the partitioning in the
// shard map.
func (c *Coordinator) DistributeTable(ctx context.Context, name string, rel *relation.Relation) error {
	name = strings.ToLower(name)
	if rel.Schema.Len() == 0 {
		return fmt.Errorf("distsql: cannot partition %s: no columns", name)
	}
	col := c.partOverride[name]
	if col == "" {
		col = rel.Schema.Attrs[0].Name
	}
	idx, err := partitionColumn(rel.Schema, col)
	if err != nil {
		return fmt.Errorf("distsql: partitioning %s: %v", name, err)
	}
	// A batch-born relation (a stored table, a CSV file) is partitioned
	// image by image, so a segmented one is never concatenated first.
	imgs := rel.Parts()
	if imgs == nil {
		imgs = []*colbatch.Batch{rel.Columnar()}
	}
	part := newPartitioner(rel.Schema, len(c.topo.Workers))
	for _, img := range imgs {
		part.add(img, idx)
	}
	if err := c.stageShards(ctx, name, part.shards); err != nil {
		return err
	}
	c.srv.Catalog().Register(name, relation.New(rel.Schema))
	c.setPart(name, strings.ToLower(col))
	return nil
}

// stageShards stages shards[i] under name on worker i, its frames written
// straight through the connection's frame writer.
func (c *Coordinator) stageShards(ctx context.Context, name string, shards []*colbatch.Batch) error {
	for i, w := range c.client.workers {
		c.client.rowsOut.Add(uint64(shards[i].Len()))
		if _, err := c.client.do(ctx, w, stageFrames(name, shards[i])...); err != nil {
			return err
		}
	}
	return nil
}

// AnalyzeWorkers broadcasts a full ANALYZE to every worker so their
// row estimates start from real per-shard statistics (the
// distributed mirror of single-node startup auto-analyze).
func (c *Coordinator) AnalyzeWorkers(ctx context.Context) error {
	for _, w := range c.client.workers {
		if _, err := c.client.do(ctx, w, wire.Frame{Frame: wire.FrameAnalyze}); err != nil {
			return err
		}
	}
	return nil
}

// ------------------------------------------------------- Distributor

// DistStream implements server.Distributor: it broadcasts or partitions
// the catalog statements, declines anything that is not over sharded
// tables alone, and otherwise plans and launches the distributed
// execution.
func (c *Coordinator) DistStream(ctx context.Context, st *sqlish.Statement, params []value.Value, batch int) (*server.DistResult, bool, error) {
	if name, ok := st.AnalyzeTarget(); ok {
		return c.distAnalyze(ctx, name)
	}
	if name, path, ok := st.CreateTarget(); ok {
		return c.distCreate(ctx, name, path)
	}
	if name, ok := st.DropTarget(); ok {
		return c.distDrop(ctx, name)
	}
	pl, hit := c.plan(st)
	if pl == nil {
		return nil, false, nil
	}
	c.queries.Add(1)
	if pl.prep.IsExplain() && !pl.prep.IsExplainAnalyze() {
		return &server.DistResult{Plan: pl.explain, CacheHit: hit}, true, nil
	}
	if pl.strategy == stratGatherAll {
		res, err := c.runGatherAll(ctx, st, pl, params, batch, hit)
		return res, true, err
	}
	res, err := c.run(ctx, st, pl, params, batch, hit)
	return res, true, err
}

// DistExplain implements the never-executing GET /explain path.
func (c *Coordinator) DistExplain(st *sqlish.Statement) (string, bool, error) {
	pl, _ := c.plan(st)
	if pl == nil {
		return "", false, nil
	}
	return pl.explain, true, nil
}

// explainText renders the distributed plan for EXPLAIN: the strategy, the
// staging, and for the scatter family the cut the workers answer and the
// nodes the coordinator runs above it, merge form included.
func (c *Coordinator) explainText(pl *distPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Distributed: %s over %d worker(s)\n", pl.strategy, len(c.topo.Workers))
	for _, t := range sortedKeys(pl.repart) {
		fmt.Fprintf(&b, "  repartition: %s by %s\n", t, pl.repart[t])
	}
	if pl.strategy == stratGatherAll {
		tables := make([]string, len(pl.deps))
		for i, d := range pl.deps {
			tables[i] = d.name
		}
		fmt.Fprintf(&b, "  gather: %s\n", strings.Join(tables, ", "))
		return b.String()
	}
	fmt.Fprintf(&b, "  worker: the statement to its %s cut\n", pl.cut)
	if pl.strategy != stratScatter {
		fmt.Fprintf(&b, "  final:  %s\n", pl.final)
	}
	return b.String()
}

// ------------------------------------------------------- DDL broadcast

// distAnalyze broadcasts ANALYZE to every worker and sums the per-shard
// row counts into the single-node acknowledgement format.
func (c *Coordinator) distAnalyze(ctx context.Context, target string) (*server.DistResult, bool, error) {
	if _, ok := c.shardMap()[target]; !ok {
		return nil, false, nil
	}
	var rows int64
	for _, w := range c.client.workers {
		n, err := c.client.do(ctx, w, wire.Frame{Frame: wire.FrameAnalyze, Table: target})
		if err != nil {
			return nil, true, err
		}
		rows += n
	}
	cols := 0
	if stub, ok := c.srv.Catalog().Snapshot().Lookup(target); ok {
		cols = stub.Schema.Len()
	}
	return &server.DistResult{Plan: fmt.Sprintf("ANALYZE %s: %d rows, %d columns", target, rows, cols)}, true, nil
}

// distCreate loads the CSV on the coordinator, partitions it across the
// workers and registers the local schema stub, mirroring the
// single-node CREATE TABLE acknowledgement byte-for-byte.
func (c *Coordinator) distCreate(ctx context.Context, target, path string) (*server.DistResult, bool, error) {
	if _, exists := c.srv.Catalog().Snapshot().Lookup(target); exists {
		return nil, true, fmt.Errorf("server: CREATE TABLE: table %q already exists", target)
	}
	rel, err := csvio.ReadFile(path)
	if err != nil {
		return nil, true, fmt.Errorf("server: CREATE TABLE %s: %v", target, err)
	}
	if err := c.DistributeTable(ctx, target, rel); err != nil {
		return nil, true, err
	}
	return &server.DistResult{Plan: fmt.Sprintf("CREATE TABLE %s: %d rows, %d columns", target, rel.Len(), rel.Schema.Len())}, true, nil
}

// distDrop broadcasts the unstage and drops the local stub.
func (c *Coordinator) distDrop(ctx context.Context, target string) (*server.DistResult, bool, error) {
	if _, ok := c.shardMap()[target]; !ok {
		return nil, false, nil
	}
	for _, w := range c.client.workers {
		if _, err := c.client.do(ctx, w, wire.Frame{Frame: wire.FrameUnstage, Table: target}); err != nil {
			return nil, true, err
		}
	}
	c.srv.Catalog().Drop(target)
	c.setPart(target, "")
	return &server.DistResult{Plan: "DROP TABLE " + target}, true, nil
}

// ------------------------------------------------------- planning

// plan resolves the distributed plan through the cache: one plan per
// statement shape (sqlish.Statement.ShapeKey: statements that differ only
// in lifted literals share one distributed plan, like they share one
// local plan), served while the tables it was built from are unchanged,
// so a hit parses nothing. On a miss the statement is prepared against
// the sharded view of the catalog; nil means it is not the coordinator's
// to run: it reads no table, or one that is not sharded, or it does not
// prepare (the local pipeline reports its error).
func (c *Coordinator) plan(st *sqlish.Statement) (*distPlan, bool) {
	snap, parts := c.srv.Catalog().Snapshot(), c.shardMap()
	key := server.CacheKey{Shape: st.ShapeKey(), Flags: c.flagsFP}
	if pl, ok := c.cache.Get(key, func(pl *distPlan) bool { return current(pl, snap, parts) }); ok {
		return pl, true
	}
	prep, err := st.Prepare(shardedView{snap, parts}, c.flags)
	if err != nil || len(prep.Deps()) == 0 {
		return nil, false
	}
	pl := c.buildPlan(prep, parts)
	c.cache.Put(key, pl, func(pl *distPlan) bool {
		return current(pl, c.srv.Catalog().Snapshot(), c.shardMap())
	})
	return pl, false
}

// current reports whether every table pl was built from still has the
// same stub and the same partition column: restaging, dropping or
// repartitioning one of its tables makes it stale, nothing else does.
func current(pl *distPlan, snap server.Snapshot, parts map[string]string) bool {
	for _, d := range pl.deps {
		if stub, _ := snap.Lookup(d.name); stub != d.stub || parts[d.name] != d.col {
			return false
		}
	}
	return true
}

// buildPlan reads the strategy off the coordinator's own plan of the
// statement (sqlish.Prepared.Place): the cut the workers answer names it —
// whole for scatter, body for scatter+final, aggregate for
// partial-aggregate — provided the plan has a merge form there
// (sqlish.Prepared.Split). Anything else gathers every table.
func (c *Coordinator) buildPlan(prep *sqlish.Prepared, parts map[string]string) *distPlan {
	pl := &distPlan{prep: prep, strategy: stratGatherAll}
	for _, d := range prep.Deps() {
		pl.deps = append(pl.deps, tableDep{name: d.Name, stub: d.Rel, col: parts[d.Name]})
	}
	slices.SortFunc(pl.deps, func(a, b tableDep) int { return strings.Compare(a.name, b.name) })
	defer func() { pl.explain = c.explainText(pl) }()

	if prep.IsExplainAnalyze() {
		return pl
	}
	// One worker holds every shard: any statement runs there whole.
	place, ok := sqlish.Placement{Cut: sqlish.CutWhole}, true
	if len(c.topo.Workers) > 1 {
		place, ok = prep.Place(parts)
	}
	if !ok {
		return pl
	}
	body, final, err := prep.Split(place.Cut, place.Redo)
	if err != nil {
		return pl
	}
	pl.strategy = [...]strategy{sqlish.CutWhole: stratScatter, sqlish.CutBody: stratScatterFinal, sqlish.CutAggregate: stratPartialAgg}[place.Cut]
	pl.cut, pl.redoDedup, pl.bodySch, pl.final = place.Cut, place.Redo, body, final
	pl.repart = map[string]string{}
	for t, col := range place.Require {
		if parts[t] != col {
			pl.repart[t] = col
		}
	}
	return pl
}

// ------------------------------------------------------- execution

// scanShards starts streaming every worker's shard of name back.
func (c *Coordinator) scanShards(ctx context.Context, name string, batch int) *mergeSource {
	gctx, cancel := context.WithCancel(ctx)
	streams := make([]*workerStream, len(c.client.workers))
	for i, w := range c.client.workers {
		streams[i] = c.client.startExec(gctx, w, wire.Frame{Frame: wire.FrameQuery, SQL: "SELECT * FROM " + name, BatchSize: batch})
	}
	return &mergeSource{cancel: cancel, streams: streams}
}

// unstageAll removes staged repartition temps from every worker,
// best-effort under its own deadline (the query is already answered or
// failed; a dead worker just keeps a temp until it restarts).
func (c *Coordinator) unstageAll(names []string) {
	if len(names) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, name := range names {
		for _, w := range c.client.workers {
			_, _ = c.client.do(ctx, w, wire.Frame{Frame: wire.FrameUnstage, Table: name})
		}
	}
}

// run executes a scatter-family plan: stage repartitioned tables if the
// plan needs them, fan the fragment out, then either stream the merged
// shards straight through (scatter) or gather them and run the
// coordinator's plan above the cut over them.
func (c *Coordinator) run(ctx context.Context, st *sqlish.Statement, pl *distPlan, params []value.Value, batch int, hit bool) (res *server.DistResult, err error) {
	args, err := st.Args(params)
	if err != nil {
		return nil, err
	}
	fanCtx, cancel := context.WithCancel(ctx)
	streaming := false
	defer func() {
		if !streaming {
			cancel()
		}
	}()

	// Coordinator-mediated shuffle: gather each mis-partitioned table,
	// re-hash it on the required column and stage the shards back under a
	// per-execution temp name the fragment substitutes for the original.
	var subst map[string]string
	var staged []string
	cleanup := func() { c.unstageAll(staged) }
	defer func() {
		if !streaming && err != nil {
			cleanup()
		}
	}()
	if len(pl.repart) > 0 {
		c.repartitions.Add(1)
		subst = map[string]string{}
		qid := c.qid.Add(1)
		snap := c.srv.Catalog().Snapshot()
		for _, t := range sortedKeys(pl.repart) {
			col := pl.repart[t]
			stub, found := snap.Lookup(t)
			if !found {
				return nil, fmt.Errorf("distsql: table %s vanished during planning", t)
			}
			idx, perr := partitionColumn(stub.Schema, col)
			if perr != nil {
				return nil, perr
			}
			// Every gathered batch is re-hashed as it arrives; the table is
			// never assembled on the coordinator.
			part := newPartitioner(stub.Schema, len(c.topo.Workers))
			gerr := gather(c.scanShards(fanCtx, t, batch), func(b *colbatch.Batch) { part.add(b, idx) })
			if gerr != nil {
				return nil, gerr
			}
			name := fmt.Sprintf("__rp%d_%s", qid, t)
			// Registered for cleanup first: a stage that fails midway has
			// already reached some workers.
			staged = append(staged, name)
			if serr := c.stageShards(fanCtx, name, part.shards); serr != nil {
				return nil, serr
			}
			subst[t] = name
		}
	}

	// Every fragment is the statement itself, over every value of its
	// placeholders, to the plan's cut.
	frag := wire.Frame{Frame: wire.FrameQuery, SQL: st.ShapeSQL(), Params: args, BatchSize: batch, Cut: pl.cut, Subst: subst}
	streams := make([]*workerStream, len(c.client.workers))
	for i, w := range c.client.workers {
		streams[i] = c.client.startExec(fanCtx, w, frag)
	}
	merge := &mergeSource{cancel: cancel, streams: streams}

	cols, types := pl.prep.Columns(params...)
	if pl.strategy == stratScatter {
		c.scatters.Add(1)
		streaming = true
		return &server.DistResult{
			Cols: cols, Types: types, Schema: pl.prep.Schema(), CacheHit: hit,
			Src: &cleanupSource{mergeSource: merge, cleanup: cleanup},
		}, nil
	}

	// Final-stage strategies buffer: gather the shard results and stream
	// the coordinator's plan above the cut over them.
	gathered, derr := gatherInto(merge, pl.bodySch)
	cleanup()
	staged = nil
	if derr != nil {
		return nil, derr
	}
	cur, xerr := pl.prep.StreamSplit(ctx, pl.cut, pl.redoDedup, relation.FromColumnar(gathered), c.flagsFor(batch), args)
	if xerr != nil {
		return nil, xerr
	}
	if pl.strategy == stratPartialAgg {
		c.partialAggs.Add(1)
	} else {
		c.scatterFinals.Add(1)
	}
	return &server.DistResult{Cols: cols, Types: types, Schema: cur.Schema(), CacheHit: hit, Src: cur}, nil
}

// flagsFor is the coordinator's planner flags under a request's
// batch-size override (batch <= 0 keeps the configured size), for the
// statements it runs locally.
func (c *Coordinator) flagsFor(batch int) plan.Flags {
	flags := c.flags
	if batch > 0 {
		flags.BatchSize = batch
	}
	return flags
}

// runGatherAll reassembles every referenced table on the coordinator and
// runs the original statement locally — correctness for every shape the
// scatter strategies cannot prove.
func (c *Coordinator) runGatherAll(ctx context.Context, st *sqlish.Statement, pl *distPlan, params []value.Value, batch int, hit bool) (*server.DistResult, error) {
	c.gatherAlls.Add(1)
	snap := c.srv.Catalog().Snapshot()
	tmp := sqlish.MapCatalog{}
	for _, d := range pl.deps {
		stub, found := snap.Lookup(d.name)
		if !found {
			return nil, fmt.Errorf("distsql: table %s vanished during planning", d.name)
		}
		// One batch-born relation: the stub's schema supplies the attribute
		// kinds, the rows arrive as batches and stay batches.
		img, err := gatherInto(c.scanShards(ctx, d.name, batch), stub.Schema)
		if err != nil {
			return nil, err
		}
		tmp.Register(d.name, relation.FromColumnar(img))
	}
	prep, err := st.Prepare(tmp, c.flagsFor(batch))
	if err != nil {
		return nil, err
	}
	if prep.IsExplainAnalyze() {
		text, aerr := prep.ExplainAnalyzeContext(ctx, params...)
		if aerr != nil {
			return nil, aerr
		}
		return &server.DistResult{Plan: text, CacheHit: hit}, nil
	}
	cur, err := prep.Stream(ctx, params...)
	if err != nil {
		return nil, err
	}
	cols, types := pl.prep.Columns(params...)
	return &server.DistResult{Cols: cols, Types: types, Schema: prep.Schema(), CacheHit: hit, Src: cur}, nil
}

// cleanupSource runs a cleanup (unstaging repartition temps) when the
// streamed scatter result is closed.
type cleanupSource struct {
	*mergeSource
	cleanup func()
	once    sync.Once
}

func (s *cleanupSource) Close() error {
	err := s.mergeSource.Close()
	s.once.Do(s.cleanup)
	return err
}
