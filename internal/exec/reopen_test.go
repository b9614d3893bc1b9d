package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/faultinject"
	"talign/internal/oracle"
	"talign/internal/raceflag"
	"talign/internal/randrel"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// reopenTree is what a re-open case builds its tree from: the parameter
// frame its placeholders read (bound to the frame for the tree under
// test, replaced by the constants it holds now for a reference tree), the
// batch size, the guard state, and the two inputs r(k, v, f) and s(k2, w).
type reopenTree struct {
	frame   []value.Value
	asConst bool
	batch   int
	gs      *GuardState
	r, s    *relation.Relation
}

// p is the placeholder $i.
func p(i int) expr.Expr { return expr.Param{Idx: i} }

// e prepares an expression for the tree: placeholders bound to the frame,
// or — the pre-frame behaviour, kept here as the independent reference —
// substituted by constants.
func (c *reopenTree) e(x expr.Expr) expr.Expr {
	if !c.asConst {
		return expr.BindParams(x, c.frame)
	}
	var sub func(x expr.Expr) expr.Expr
	sub = func(x expr.Expr) expr.Expr {
		switch n := x.(type) {
		case expr.Param:
			return expr.Const{V: c.frame[n.Idx-1]}
		case expr.Cmp:
			return expr.Cmp{Op: n.Op, L: sub(n.L), R: sub(n.R)}
		case expr.Logic:
			return expr.Logic{Op: n.Op, L: sub(n.L), R: sub(n.R)}
		case expr.Between:
			return expr.Between{X: sub(n.X), Lo: sub(n.Lo), Hi: sub(n.Hi)}
		case expr.Arith:
			return expr.Arith{Op: n.Op, L: sub(n.L), R: sub(n.R)}
		}
		return x
	}
	return sub(x)
}

func (c *reopenTree) sized(it ColIterator) ColIterator { return ApplyColBatch(it, c.batch) }

// filter is a guarded scan → filter chain: what the planner hands a
// stateful operator as input.
func (c *reopenTree) filter(rel *relation.Relation, pred expr.Expr) ColIterator {
	return NewColGuard(c.gs, NewColFilter(c.sized(NewColScan(rel)), c.e(pred)))
}

var (
	rK, rV, rF = expr.CI(0, value.KindInt), expr.CI(1, value.KindInt), expr.CI(2, value.KindFloat)
	sK, sW     = expr.CI(0, value.KindInt), expr.CI(1, value.KindInt)
	rPred      = expr.Ge(rV, p(1)) // every case filters r by $1 ...
	sPred      = expr.Le(sW, p(2)) // ... and s by $2
)

func (c *reopenTree) left() ColIterator  { return c.filter(c.r, rPred) }
func (c *reopenTree) right() ColIterator { return c.filter(c.s, sPred) }

func (c *reopenTree) project(in ColIterator, mode TPolicy, texpr expr.Expr, cols ...expr.Expr) ColIterator {
	attrs := make([]schema.Attr, len(cols))
	for i, e := range cols {
		attrs[i] = schema.Attr{Name: fmt.Sprintf("c%d", i), Type: e.Type()}
	}
	return NewColProject(in, cols, schema.Schema{Attrs: attrs}, mode, texpr)
}

type reopenCase struct {
	name  string
	build func(c *reopenTree) ColIterator
	// want, when set, is the result by other means — internal/oracle where
	// the tree computes an operator of the temporal algebra, the naive
	// join loop for a bare join — over the filtered inputs; rows compare
	// as multisets (sameRows).
	want func(t *testing.T, s, rf, sf *relation.Relation) *relation.Relation
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func reopenCases() []reopenCase {
	filter := func(name string, pred expr.Expr) reopenCase {
		return reopenCase{name: "filter " + name, build: func(c *reopenTree) ColIterator { return c.filter(c.r, pred) }}
	}
	cases := []reopenCase{
		{name: "scan", build: func(c *reopenTree) ColIterator { return c.sized(NewColScan(c.r)) }},
		{name: "seg-scan", build: func(c *reopenTree) ColIterator {
			// Three segments; which survive "pruning" moves with $1.
			var segs []relation.Segment
			rows := c.r.Rows()
			for k := 0; k < 3; k++ {
				lo, hi := k*len(rows)/3, (k+1)*len(rows)/3
				img := colbatch.FromTuples(nil, c.r.Schema, rows[lo:hi])
				segs = append(segs, relation.Segment{Img: img, Zone: colbatch.ZoneOf(img), Lo: lo, Hi: hi})
			}
			ss, frame := NewColSegScan(c.r.Schema, nil), c.frame
			ss.Prune = func(dst []relation.Segment) []relation.Segment {
				from := 0
				if frame[0].Kind() == value.KindInt {
					from = int(frame[0].Int()) % 3
				}
				return append(dst, segs[from:]...)
			}
			return NewColFilter(c.sized(ss), c.e(rPred))
		}},
		{name: "filter int kernel", build: func(c *reopenTree) ColIterator { return c.left() },
			want: func(_ *testing.T, _, rf, _ *relation.Relation) *relation.Relation { return rf }},
		filter("float kernel", expr.Le(rF, p(2))),
		filter("flipped kernel", expr.Lt(p(1), rV)),
		filter("TS kernel", expr.Ge(expr.TStart{}, p(1))),
		filter("TE kernel", expr.Gt(p(2), expr.TEnd{})),
		filter("const kernel", expr.Ge(rV, expr.Const{V: value.NewInt(3)})),
		filter("no kernel", expr.And(expr.Ge(rV, p(1)), expr.Or(expr.Eq(rK, expr.Const{V: value.NewInt(1)}), expr.IsNull{X: rF, Negate: true}), expr.Between{X: rV, Lo: p(1), Hi: p(2)})),
		{name: "project TKeep", build: func(c *reopenTree) ColIterator {
			return c.project(c.left(), TKeep, nil, rV, expr.TStart{}, rK)
		}},
		{name: "project TFromExpr", build: func(c *reopenTree) ColIterator {
			return c.project(c.left(), TFromExpr, expr.Func{Name: "PERIOD", Args: []expr.Expr{rK, rV}}, rK, rV)
		}},
		filter("computed", expr.And(expr.Ge(expr.Add(rV, rK), p(1)), expr.Or(expr.Lt(expr.Call("DUR", expr.TStart{}, expr.TEnd{}), p(2)), expr.Eq(rK, expr.Const{V: value.NewInt(1)})))),
		{name: "project computed", build: func(c *reopenTree) ColIterator {
			return c.project(c.left(), TKeep, nil, c.e(expr.Add(rV, p(1))), rK, expr.Div(expr.Const{V: value.NewInt(6)}, rK))
		}},
		{name: "project computed TFromExpr", build: func(c *reopenTree) ColIterator {
			return c.project(c.left(), TFromExpr, expr.Call("PERIOD", expr.TStart{}, expr.Add(expr.TStart{}, rV)), rK, expr.Sub(rV, rK))
		}},
		{name: "limit offset", build: func(c *reopenTree) ColIterator { return must(NewColLimit(c.left(), 3, 2)) }},
		{name: "offset only", build: func(c *reopenTree) ColIterator { return must(NewColLimit(c.left(), -1, 1)) }},
		{name: "aggregate", build: func(c *reopenTree) ColIterator {
			aggs := []AggSpec{{Func: AggCountStar, Name: "n"}, {Func: AggSum, Arg: rV, Name: "sv"}, {Func: AggMin, Arg: rF, Name: "mf"}, {Func: AggAvg, Arg: rV, Name: "av"}}
			return c.sized(must(NewColHashAggregate(c.left(), []expr.Expr{rK}, []string{"k"}, true, aggs)))
		}},
		{name: "global aggregate", build: func(c *reopenTree) ColIterator {
			aggs := []AggSpec{{Func: AggCountStar, Name: "n"}, {Func: AggMax, Arg: rV, Name: "mv"}}
			return c.sized(must(NewColHashAggregate(c.left(), nil, nil, false, aggs)))
		}},
		{name: "absorb", build: func(c *reopenTree) ColIterator {
			return c.sized(NewColAbsorb(NewColGuard(c.gs, c.project(c.left(), TKeep, nil, rK))))
		}},
		{name: "temporal left outer join", build: func(c *reopenTree) ColIterator {
			// Table 2: α((r Φθ s) ⟕ θ ∧ r.T = s.T (s Φθ r)), θ: k = k2.
			rs := NewColFusedAdjust(c.left(), c.right(), ModeAlign, []expr.EquiPair{{Left: rK, Right: sK}}, nil)
			sr := NewColFusedAdjust(c.right(), c.left(), ModeAlign, []expr.EquiPair{{Left: sK, Right: rK}}, nil)
			j := NewColHashJoin(NewColGuard(c.gs, c.sized(rs)), NewColGuard(c.gs, c.sized(sr)), []expr.EquiPair{{Left: rK, Right: sK}}, nil, LeftOuterJoin, true)
			return c.sized(NewColAbsorb(NewColGuard(c.gs, c.sized(j))))
		}, want: func(_ *testing.T, _, rf, sf *relation.Relation) *relation.Relation {
			return must(oracle.LeftOuterJoin(rf, sf, expr.Eq(rK, expr.CI(3, value.KindInt))))
		}},
		{name: "temporal aggregation", build: func(c *reopenTree) ColIterator {
			// B,Tϑ_F(N_B(r; r)), B = {k}: the split points are r's own
			// bounds, by k.
			norm := NewColFusedAdjust(c.left(), c.left(), ModeNormalize, []expr.EquiPair{{Left: rK, Right: rK}}, nil)
			aggs := []AggSpec{{Func: AggCountStar, Name: "n"}, {Func: AggSum, Arg: rV, Name: "sv"}}
			return c.sized(must(NewColHashAggregate(NewColGuard(c.gs, c.sized(norm)), []expr.Expr{rK}, []string{"k"}, true, aggs)))
		}, want: func(_ *testing.T, _, rf, _ *relation.Relation) *relation.Relation {
			return must(oracle.Aggregation(rf, []string{"k"}, []oracle.AggSpec{{Op: oracle.CountStar, Name: "n"}, {Op: oracle.Sum, Arg: rV, Name: "sv"}}))
		}},
		{name: "temporal aggregation sweep", build: func(c *reopenTree) ColIterator {
			// The same B,Tϑ_F(N_B(r; r)) as one endpoint sweep per k run;
			// the filtered input's index is rebuilt at every Open.
			aggs := []AggSpec{{Func: AggCountStar, Name: "n"}, {Func: AggSum, Arg: rV, Name: "sv"}, {Func: AggCount, Arg: rF, Name: "cf"}}
			return c.sized(must(NewColSweepAggregate(c.left(), []int{0}, []int{0}, must(AggregateSchema([]expr.Expr{rK}, []string{"k"}, aggs)), aggs)))
		}, want: func(_ *testing.T, _, rf, _ *relation.Relation) *relation.Relation {
			return must(oracle.Aggregation(rf, []string{"k"}, []oracle.AggSpec{{Op: oracle.CountStar, Name: "n"}, {Op: oracle.Sum, Arg: rV, Name: "sv"}, {Op: oracle.Count, Arg: rF, Name: "cf"}}))
		}},
		{name: "temporal aggregation sweep image", build: func(c *reopenTree) ColIterator {
			// Over a projected bare scan: the index r's image keeps.
			aggs := []AggSpec{{Func: AggCount, Arg: rK, Name: "ck"}, {Func: AggSum, Arg: rV, Name: "sv"}}
			in := NewColGuard(c.gs, c.project(c.sized(NewColScan(c.r)), TKeep, nil, rV, rK))
			return c.sized(must(NewColSweepAggregate(in, []int{1}, []int{1}, must(AggregateSchema([]expr.Expr{rK}, []string{"k"}, aggs)), aggs)))
		}},
	}
	// Set operations over r's and s's (k, v | w) pairs; DISTINCT over r's k.
	for _, kind := range []SetOpKind{UnionOp, IntersectOp, ExceptOp} {
		cases = append(cases, reopenCase{name: "set-op " + kind.String(), build: func(c *reopenTree) ColIterator {
			return must(NewColSetOp(c.project(c.left(), TKeep, nil, rK, rV), NewColGuard(c.gs, c.project(c.right(), TKeep, nil, sK, sW)), kind))
		}})
	}
	cases = append(cases, reopenCase{name: "distinct", build: func(c *reopenTree) ColIterator {
		return NewColDistinct(c.project(c.left(), TKeep, nil, rK))
	}})
	// Sort: ascending, descending and expression keys over a filter chain
	// (an owned store) and a bare scan (the relation's image).
	for name, keys := range map[string][]SortKey{"asc": {{Expr: rV}}, "desc": {{Expr: rK, Desc: true}, {Expr: expr.TEnd{}}}, "expr": {{Expr: expr.Sub(rV, rK), Desc: true}}} {
		cases = append(cases, reopenCase{name: "sort " + name, build: func(c *reopenTree) ColIterator {
			in := c.left()
			if name == "desc" {
				in = c.sized(NewColScan(c.r))
			}
			return c.sized(NewColSort(in, keys...))
		}})
	}
	// Join: six types × MatchT × residual; keyed (the hash join) and
	// keyless (the nested loop), each building over a filter chain (an
	// owned store) and over a bare scan (the relation's image, borrowed).
	vLEw := expr.Le(rV, expr.CI(4, value.KindInt))
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, RightOuterJoin, FullOuterJoin, SemiJoin, AntiJoin} {
		for _, matchT := range []bool{false, true} {
			for _, residual := range []expr.Expr{nil, vLEw} {
				for _, access := range []struct {
					name           string
					keyless, image bool
				}{{"hash", false, false}, {"hash image", false, true}, {"keyless owned", true, false}, {"keyless", true, true}} {
					if access.keyless && residual == nil {
						continue
					}
					cond := expr.And(expr.Eq(rK, expr.CI(3, value.KindInt)), vLEw)
					if residual == nil {
						cond = expr.Eq(rK, expr.CI(3, value.KindInt))
					}
					cases = append(cases, reopenCase{
						name: fmt.Sprintf("join %s matchT=%v residual=%v %s", typ, matchT, residual != nil, access.name),
						build: func(c *reopenTree) ColIterator {
							right := c.right()
							if access.image {
								right = c.sized(NewColScan(c.s))
							}
							if access.keyless {
								return c.sized(NewColHashJoin(c.left(), right, nil, cond, typ, matchT))
							}
							return c.sized(NewColHashJoin(c.left(), right, []expr.EquiPair{{Left: rK, Right: sK}}, residual, typ, matchT))
						},
						want: func(t *testing.T, s, rf, sf *relation.Relation) *relation.Relation {
							if access.image {
								sf = s
							}
							return naiveJoin(t, rf, sf, cond, typ, matchT)
						},
					})
				}
			}
		}
	}
	// Fused adjust: {align, gaps, normalize} × {keyed, keyless} × residual.
	// The group side is parameter-filtered, so its runs and their start
	// order must be rebuilt at every Open; two cases group over a projected
	// bare scan instead, whose image passes the guard and the projection
	// without a copy.
	equi := []expr.EquiPair{{Left: rK, Right: sK}}
	for _, mode := range []AdjustMode{ModeAlign, ModeGaps, ModeNormalize} {
		for _, keys := range [][]expr.EquiPair{equi, nil} {
			for _, residual := range []expr.Expr{nil, vLEw} {
				borrowed := mode == ModeAlign && (keys != nil) == (residual == nil)
				cases = append(cases, reopenCase{
					name: fmt.Sprintf("fused %s %s keys=%d residual=%v", mode, keyedName(keys), len(keys), residual != nil),
					build: func(c *reopenTree) ColIterator {
						right := c.right()
						if borrowed {
							right = NewColGuard(c.gs, c.project(c.sized(NewColScan(c.s)), TKeep, nil, sK, sW))
						}
						return c.sized(NewColFusedAdjust(c.left(), right, mode, keys, residual))
					},
				})
			}
		}
	}
	// A group side whose key set moves with $1 (k2 >= $1: from every key
	// to none under ω), so the runs themselves change between executions.
	cases = append(cases, reopenCase{name: "fused align keyed, group keys move", build: func(c *reopenTree) ColIterator {
		return c.sized(NewColFusedAdjust(c.left(), c.filter(c.s, expr.Ge(sK, p(1))), ModeAlign, equi, nil))
	}})
	return cases
}

// drainCol runs one execution of it to the end and returns its rows.
func drainCol(t *testing.T, it ColIterator) []tuple.Tuple {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	for {
		b, err := it.NextCol()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows = b.Materialize(rows)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// reopenInputs generates r(k, v, f) and s(k2, w): small alphabets, so
// groups and chains have several members, f = v/2 with an ω now and then.
func reopenInputs(seed int64, maxTuples int) (r, s *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	rcfg := randrel.DefaultConfig(schema.Attr{Name: "k", Type: value.KindInt}, schema.Attr{Name: "v", Type: value.KindInt})
	rcfg.MaxTuples, rcfg.Alphabet = maxTuples, 6
	base := randrel.Generate(rng, rcfg)
	r = relation.New(schema.MustNew(rcfg.Attrs[0], rcfg.Attrs[1], schema.Attr{Name: "f", Type: value.KindFloat}))
	for i, tp := range base.Tuples {
		f := value.NewFloat(float64(tp.Vals[1].Int()) / 2)
		if i%7 == 3 {
			f = value.Null
		}
		r.MustAppend(tuple.New(tp.T, tp.Vals[0], tp.Vals[1], f))
	}
	scfg := randrel.DefaultConfig(schema.Attr{Name: "k2", Type: value.KindInt}, schema.Attr{Name: "w", Type: value.KindInt})
	scfg.MaxTuples, scfg.Alphabet = maxTuples, 6
	return r, randrel.Generate(rng, scfg)
}

// TestReopenContract is the ColIterator life cycle as a test, over every
// columnar operator: a tree is built ONCE over a parameter frame and then
// executed again and again — three full executions under different frames
// (an int, a float and an ω bound to the same placeholders: the filter's
// flat kernel must follow the kind), one abandoned after its first batch,
// one whose Open fails half-way (an injected fault at an inner guard), one
// closed without being pulled, and two full ones more. Every full
// execution returns, row for row and in order, what a tree built for that
// frame alone returns (its placeholders substituted by constants), and —
// where the tree computes something defined independently — what
// internal/oracle or the naive join loop returns.
func TestReopenContract(t *testing.T) {
	frames := [][]value.Value{
		{value.NewInt(1), value.NewInt(4)},
		{value.NewFloat(2.5), value.NewFloat(3.5)},
		{value.Null, value.NewInt(9)},
		{value.NewInt(0), value.NewString("x")},
		{value.NewInt(3), value.NewInt(2)},
	}
	defer faultinject.Reset()
	for _, batch := range []int{2, 0} {
		for ci, tc := range reopenCases() {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, batch), func(t *testing.T) {
				r, s := reopenInputs(int64(100+ci), 24)
				gs := new(GuardState)
				c := &reopenTree{frame: make([]value.Value, 2), batch: batch, gs: gs, r: r, s: s}
				root := NewColGuard(gs, tc.build(c))
				full := func(frame []value.Value) {
					t.Helper()
					copy(c.frame, frame)
					gs.Arm(nil, nil)
					got := drainCol(t, root)
					ref := &reopenTree{frame: frame, asConst: true, batch: batch, gs: new(GuardState), r: r, s: s}
					want := drainCol(t, tc.build(ref))
					if len(got) != len(want) {
						t.Fatalf("frame %v: %d rows from the re-opened tree, %d from a fresh one\ngot  %v\nwant %v", frame, len(got), len(want), got, want)
					}
					for i := range got {
						if !bytes.Equal(got[i].AppendKey(nil), want[i].AppendKey(nil)) {
							t.Fatalf("frame %v: row %d is %v, a fresh tree's is %v", frame, i, got[i], want[i])
						}
					}
					if tc.want == nil {
						return
					}
					rf := must(oracle.Selection(r, ref.e(rPred)))
					sf := must(oracle.Selection(s, ref.e(sPred)))
					indep := tc.want(t, s, rf, sf)
					if gotRel := (&relation.Relation{Schema: root.Schema(), Tuples: got}); !sameRows(gotRel, indep) {
						t.Fatalf("frame %v: the re-opened tree disagrees with the independent reference\ngot:\n%s\nwant:\n%s", frame, gotRel, indep)
					}
				}
				full(frames[0])
				full(frames[1])
				full(frames[2])

				// Abandoned after one batch.
				copy(c.frame, frames[3])
				if err := root.Open(); err != nil {
					t.Fatal(err)
				}
				if _, err := root.NextCol(); err != nil {
					t.Fatal(err)
				}
				if err := root.Close(); err != nil {
					t.Fatal(err)
				}
				full(frames[0])

				// An Open that fails: at the second guard down where the
				// tree has one, else at the root's (the first attempt then
				// opens fine and is closed unpulled).
				copy(c.frame, frames[1])
				failed := false
				for _, after := range []int{1, 0} {
					faultinject.Arm("exec.open", faultinject.Fault{Kind: faultinject.KindError, After: after})
					err := root.Open()
					faultinject.Reset()
					if cerr := root.Close(); cerr != nil {
						t.Fatal(cerr)
					}
					if failed = err != nil; failed {
						break
					}
				}
				if !failed {
					t.Fatal("the injected fault did not fail Open")
				}
				full(frames[3])
				full(frames[4])
			})
		}
	}
}

// TestReopenAllocPin: once a tree has run, running it again allocates
// nothing — not a closure, a header, a key table or an output buffer — for
// every case of the contract test, under a frame that moves, on inputs of
// a point query's size (what outgrows keptRows is dropped at Close, and
// allocated again).
func TestReopenAllocPin(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocation")
	}
	for ci, tc := range reopenCases() {
		r, s := reopenInputs(int64(100+ci), 4)
		gs := new(GuardState)
		c := &reopenTree{frame: []value.Value{value.NewInt(1), value.NewInt(4)}, gs: gs, r: r, s: s}
		root := NewColGuard(gs, tc.build(c))
		run := func() {
			c.frame[0] = value.NewInt(c.frame[0].Int() ^ 1) // 1, 0, 1, ...
			if err := root.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				b, err := root.NextCol()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			root.Close()
		}
		run()
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
			t.Errorf("%s: re-opening and draining the tree costs %.0f mallocs, want 0", tc.name, allocs)
		}
	}
}
