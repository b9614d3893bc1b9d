package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"talign/internal/dataset"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/tuple"
	"talign/internal/value"
)

// fusedInput wraps rel as an input: a bare ColScan (whose image the
// operator aliases) or, bridged, a scan behind a pass-all filter (which it
// drains into its own store), with tiny batches to cross batch boundaries.
func fusedInput(rel *relation.Relation, bridged bool) ColIterator {
	sc := NewColScan(rel)
	sc.SetBatchSize(3)
	if bridged {
		return NewColFilter(sc, expr.Bool(true))
	}
	return sc
}

func runFused(t *testing.T, left, right *relation.Relation, bridged bool, mode AdjustMode, keys []expr.EquiPair, residual expr.Expr) []tuple.Tuple {
	t.Helper()
	op := NewColFusedAdjust(fusedInput(left, bridged), fusedInput(right, bridged), mode, keys, residual)
	op.SetBatchSize(2)
	return drainCol(t, op)
}

// keyOnCol0 equates column 0 of both sides.
func keyOnCol0(k value.Kind) []expr.EquiPair {
	return []expr.EquiPair{{Left: expr.ColIdx{Idx: 0, Typ: k}, Right: expr.ColIdx{Idx: 0, Typ: k}}}
}

// keyedName names a θ shape in subtest names: keyed, or keyless (one run).
func keyedName(keys []expr.EquiPair) string {
	if len(keys) > 0 {
		return "keyed"
	}
	return "keyless"
}

// TestColFusedAdjustSweepCases replays the Fig. 10/11 unit cases of the
// plane sweep — group members given as group-side tuples rather than a
// pre-joined stream — every case keyed (one run per key), and the
// single-group cases keyless too (one run), in every mode.
func TestColFusedAdjustSweepCases(t *testing.T) {
	lrel := func(rows ...[3]any) *relation.Relation {
		b := relation.NewBuilder("x string")
		for _, r := range rows {
			b.Row(int64(r[1].(int)), int64(r[2].(int)), r[0])
		}
		return b.MustBuild()
	}
	// Group side: (x, p); p distinguishes otherwise equal group rows.
	// Normalize splits at each group row's own Ts and Te.
	rrel := func(rows ...[4]any) *relation.Relation {
		b := relation.NewBuilder("x string", "p int")
		for _, r := range rows {
			b.Row(int64(r[1].(int)), int64(r[2].(int)), r[0], r[3])
		}
		return b.MustBuild()
	}
	cases := []struct {
		name      string
		mode      AdjustMode
		left      *relation.Relation
		right     *relation.Relation
		needsKeys bool // result depends on the x = x key
		want      *relation.Relation
	}{
		{"Fig. 11: two intersections inside r1, gap before and tail after",
			ModeAlign, lrel([3]any{"r1", 0, 5}),
			rrel([4]any{"r1", 1, 3, 1}, [4]any{"r1", 2, 3, 2}), false,
			lrel([3]any{"r1", 0, 1}, [3]any{"r1", 1, 3}, [3]any{"r1", 2, 3}, [3]any{"r1", 3, 5})},
		{"Fig. 11 in gaps mode: intersections suppressed",
			ModeGaps, lrel([3]any{"r1", 0, 5}),
			rrel([4]any{"r1", 1, 3, 1}, [4]any{"r1", 2, 3, 2}), false,
			lrel([3]any{"r1", 0, 1}, [3]any{"r1", 3, 5})},
		{"identical intersections from different group members collapse",
			ModeAlign, lrel([3]any{"r1", 0, 10}),
			rrel([4]any{"r1", 2, 4, 1}, [4]any{"r1", 2, 4, 2}, [4]any{"r1", 2, 4, 3}), false,
			lrel([3]any{"r1", 0, 2}, [3]any{"r1", 2, 4}, [3]any{"r1", 4, 10})},
		{"empty group yields the whole interval",
			ModeAlign, lrel([3]any{"r1", 3, 9}), rrel(), false,
			lrel([3]any{"r1", 3, 9})},
		{"group member outside the interval is an empty group",
			ModeAlign, lrel([3]any{"r1", 3, 9}), rrel([4]any{"r1", 9, 12, 1}, [4]any{"r1", 0, 3, 2}), false,
			lrel([3]any{"r1", 3, 9})},
		{"covered prefix: an intersection spanning the interval leaves no gaps",
			ModeAlign, lrel([3]any{"r1", 2, 6}),
			rrel([4]any{"r1", 0, 8, 1}, [4]any{"r1", 3, 5, 2}), false,
			lrel([3]any{"r1", 2, 6}, [3]any{"r1", 3, 5})},
		{"group boundary: value-equivalent left tuples sweep separately",
			ModeAlign, lrel([3]any{"a", 0, 4}, [3]any{"a", 6, 9}, [3]any{"b", 0, 2}),
			rrel([4]any{"a", 1, 2, 1}, [4]any{"b", 0, 2, 2}), true,
			lrel([3]any{"a", 0, 1}, [3]any{"a", 1, 2}, [3]any{"a", 2, 4}, [3]any{"a", 6, 9}, [3]any{"b", 0, 2})},
		{"normalize: a group row splits at its own Ts and Te, points outside are ignored",
			ModeNormalize, lrel([3]any{"r1", 0, 10}),
			rrel([4]any{"r1", 1, 4, 1}, [4]any{"r1", 4, 15, 2}, [4]any{"r1", 12, 20, 3}), false,
			lrel([3]any{"r1", 0, 1}, [3]any{"r1", 1, 4}, [3]any{"r1", 4, 10})},
		{"normalize: two group rows sharing an endpoint split there once",
			ModeNormalize, lrel([3]any{"r1", 0, 10}),
			rrel([4]any{"r1", 2, 5, 1}, [4]any{"r1", 5, 8, 2}, [4]any{"r1", 2, 8, 3}), false,
			lrel([3]any{"r1", 0, 2}, [3]any{"r1", 2, 5}, [3]any{"r1", 5, 8}, [3]any{"r1", 8, 10})},
		{"normalize: an endpoint equal to the left row's Ts or Te does not split",
			ModeNormalize, lrel([3]any{"r1", 3, 9}),
			rrel([4]any{"r1", 3, 9, 1}, [4]any{"r1", 0, 3, 2}, [4]any{"r1", 9, 12, 3}, [4]any{"r1", 3, 6, 4}), false,
			lrel([3]any{"r1", 3, 6}, [3]any{"r1", 6, 9})},
		{"normalize: no split points reproduce the input tuple",
			ModeNormalize, lrel([3]any{"r1", 5, 8}), rrel(), false,
			lrel([3]any{"r1", 5, 8})},
	}
	for _, c := range cases {
		variants := [][]expr.EquiPair{keyOnCol0(value.KindString)}
		if !c.needsKeys {
			variants = append(variants, nil)
		}
		for _, keys := range variants {
			for _, bridged := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/keys=%d/bridged=%v", c.name, keyedName(keys), len(keys), bridged), func(t *testing.T) {
					got := runFused(t, c.left, c.right, bridged, c.mode, keys, nil)
					assertSameRows(t, got, append([]tuple.Tuple(nil), c.want.Tuples...))
				})
			}
		}
	}
}

// refAdjust is the definition-literal reference for one operator
// configuration: per left tuple it enumerates every candidate interval
// over the small time domain and keeps those Def. 11 (align: intersections
// with matching group tuples and maximal uncovered gaps; gaps: the latter
// only) or Def. 9 (normalize: maximal pieces with no split point — a group
// tuple's start or end — strictly inside) admits. match decides θ for a
// pair.
func refAdjust(left, right *relation.Relation, mode AdjustMode, match func(l, r tuple.Tuple) bool) []tuple.Tuple {
	var out []tuple.Tuple
	for _, l := range left.Tuples {
		var group []tuple.Tuple
		for _, r := range right.Tuples {
			if match(l, r) {
				group = append(group, r)
			}
		}
		// admits reports whether iv ⊆ l.T is free of group interference.
		admits := func(iv interval.Interval) bool {
			for _, r := range group {
				if mode == ModeNormalize {
					for _, p := range []int64{r.T.Ts, r.T.Te} {
						if iv.Ts < p && p < iv.Te {
							return false
						}
					}
				} else if r.T.Overlaps(iv) {
					return false
				}
			}
			return true
		}
		for a := l.T.Ts; a < l.T.Te; a++ {
			for b := a + 1; b <= l.T.Te; b++ {
				iv := interval.Interval{Ts: a, Te: b}
				keep := admits(iv) &&
					(a == l.T.Ts || !admits(interval.Interval{Ts: a - 1, Te: b})) &&
					(b == l.T.Te || !admits(interval.Interval{Ts: a, Te: b + 1}))
				if mode == ModeAlign {
					for _, r := range group {
						if x, ok := l.T.Intersect(r.T); ok && x == iv {
							keep = true
						}
					}
				}
				if keep {
					out = append(out, l.WithT(iv))
				}
			}
		}
	}
	return out
}

// TestColFusedAdjustMatchesDefinition is the operator-level randomized
// differential: every mode × θ shape, keyed and keyless — including key
// expressions that compute, residual θ (one computing across the
// left/right split) and ω and float-demoted columns — against the
// brute-force reference. Trials 6–11
// add one long group interval, which widens every run's scan window
// (r.Ts > lts − maxDur) over most of the run: its worst case.
func TestColFusedAdjustMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	k0 := expr.ColIdx{Idx: 0, Typ: value.KindInt}
	plainKeys := []expr.EquiPair{{Left: k0, Right: k0}}
	// k + 0 = k + 0: same matches, but computed rather than read.
	computedKeys := []expr.EquiPair{{Left: expr.Add(k0, expr.Int(0)), Right: expr.Add(k0, expr.Int(0))}}
	// l.v <= r.v over Concat(left, right).
	lv, rk, rv := expr.ColIdx{Idx: 1, Typ: value.KindInt}, expr.ColIdx{Idx: 2, Typ: value.KindInt}, expr.ColIdx{Idx: 3, Typ: value.KindInt}
	residual := expr.Le(lv, rv)
	// l.v + r.v > 40 - r.k: r.k is ω in a tenth of the rows, r.v a float
	// in a seventh.
	cross := expr.Gt(expr.Add(lv, rv), expr.Sub(expr.Int(40), rk))
	keyMatch := func(l, r tuple.Tuple) bool {
		return !l.Vals[0].IsNull() && !r.Vals[0].IsNull() && l.Vals[0].Equal(r.Vals[0])
	}
	resMatch := func(l, r tuple.Tuple) bool {
		return !l.Vals[1].IsNull() && !r.Vals[1].IsNull() && l.Vals[1].Compare(r.Vals[1]) <= 0
	}
	crossMatch := func(l, r tuple.Tuple) bool {
		a, _ := l.Vals[1].AsFloat()
		b, _ := r.Vals[1].AsFloat()
		return !r.Vals[0].IsNull() && a+b > 40-float64(r.Vals[0].Int())
	}
	type shape struct {
		name     string
		keys     []expr.EquiPair
		residual expr.Expr
		match    func(l, r tuple.Tuple) bool
	}
	shapes := []shape{
		{"equi", plainKeys, nil, keyMatch},
		{"equi-computed", computedKeys, nil, keyMatch},
		{"equi+residual", plainKeys, residual, func(l, r tuple.Tuple) bool { return keyMatch(l, r) && resMatch(l, r) }},
		{"keyless-residual", nil, residual, resMatch},
		{"keyless-cross-residual", nil, cross, crossMatch},
		{"nil", nil, nil, func(l, r tuple.Tuple) bool { return true }},
	}
	for trial := 0; trial < 12; trial++ {
		for _, mode := range []AdjustMode{ModeAlign, ModeGaps, ModeNormalize} {
			// Mixed int/float columns exercise demotion.
			left := colTestRel(r, 40, true).Dedup()
			right := colTestRel(r, 50, true)
			if trial >= 6 {
				ts := r.Int63n(20)
				right.MustAppend(tuple.New(interval.New(ts, ts+70+r.Int63n(20)), value.NewInt(r.Int63n(8)), value.NewInt(r.Int63n(50))))
			}
			for _, sh := range shapes {
				want := refAdjust(left, right, mode, sh.match)
				got := runFused(t, left, right, trial%2 == 1, mode, sh.keys, sh.residual)
				t.Run(fmt.Sprintf("trial%d/%s/%s/%s", trial, mode, sh.name, keyedName(sh.keys)), func(t *testing.T) {
					assertSameRows(t, got, append([]tuple.Tuple(nil), want...))
				})
			}
		}
	}
}

// TestColFusedAdjustScanWindow pins the edges of the run scan's window —
// a group row overlaps iff r.Ts < lte and r.Te > lts, and the scan starts
// at the first r.Ts > lts − maxDur of the left row's run — and the
// boundaries between runs, with hand-built rows around each bound, in
// every mode, keyed and keyless (one run), against the definition
// reference. Keys are k (omega stands for ω); group rows carry a tag p.
func TestColFusedAdjustScanWindow(t *testing.T) {
	const omega = -1
	rows := func(spec ...[3]int64) *relation.Relation {
		b := relation.NewBuilder("k int", "p int")
		for i, s := range spec {
			var k any = s[0]
			if s[0] == omega {
				k = nil
			}
			b.Row(s[1], s[2], k, int64(i))
		}
		return b.MustBuild()
	}
	cases := []struct {
		name        string
		left, right *relation.Relation
	}{
		{"touching rows do not overlap",
			rows([3]int64{1, 10, 20}), rows([3]int64{1, 5, 10}, [3]int64{1, 20, 25})},
		{"the longest row starting at lts - maxDur ends at lts",
			rows([3]int64{1, 10, 20}), rows([3]int64{1, 2, 10}, [3]int64{1, 12, 14})},
		{"the longest row starting one past lts - maxDur reaches in",
			rows([3]int64{1, 10, 20}), rows([3]int64{1, 1, 11}, [3]int64{1, 15, 16})},
		{"one long row widens the window over many short ones",
			rows([3]int64{1, 40, 45}, [3]int64{1, 70, 72}),
			rows([3]int64{1, 0, 100}, [3]int64{1, 5, 6}, [3]int64{1, 10, 12}, [3]int64{1, 41, 43},
				[3]int64{1, 44, 50}, [3]int64{1, 71, 72}, [3]int64{1, 90, 95})},
		{"rows sharing a start with different ends",
			rows([3]int64{1, 11, 14}, [3]int64{1, 20, 25}),
			rows([3]int64{1, 10, 12}, [3]int64{1, 10, 15}, [3]int64{1, 10, 30})},
		{"left rows out of start order",
			rows([3]int64{1, 50, 60}, [3]int64{1, 0, 10}, [3]int64{1, 25, 35}),
			rows([3]int64{1, 30, 55}, [3]int64{1, 5, 8})},
		{"unit-length rows",
			rows([3]int64{1, 3, 4}, [3]int64{1, 4, 5}),
			rows([3]int64{1, 4, 5}, [3]int64{1, 2, 3}, [3]int64{1, 3, 4})},
		{"group rows equal to and containing the left row",
			rows([3]int64{1, 10, 20}), rows([3]int64{1, 10, 20}, [3]int64{1, 0, 30})},
		{"every group row after the left rows",
			rows([3]int64{1, 0, 5}), rows([3]int64{1, 20, 30}, [3]int64{1, 5, 9})},
		{"empty left side",
			rows(), rows([3]int64{1, 0, 5})},
		{"keys partition overlapping group rows",
			rows([3]int64{1, 10, 20}, [3]int64{2, 10, 20}),
			rows([3]int64{2, 12, 14}, [3]int64{1, 15, 18}, [3]int64{2, 0, 11}, [3]int64{3, 5, 25})},
		{"runs of different keys interleave in time",
			rows([3]int64{1, 10, 30}, [3]int64{2, 15, 25}),
			rows([3]int64{1, 5, 12}, [3]int64{2, 8, 16}, [3]int64{1, 14, 18}, [3]int64{2, 20, 22},
				[3]int64{1, 26, 40}, [3]int64{2, 24, 35}, [3]int64{1, 29, 31})},
		{"the last row of one run and the first of the next both overlap",
			rows([3]int64{1, 10, 20}, [3]int64{2, 10, 20}),
			rows([3]int64{1, 0, 5}, [3]int64{1, 15, 25}, [3]int64{2, 12, 14}, [3]int64{2, 30, 40})},
		{"a long interval in another key's run",
			rows([3]int64{1, 50, 55}, [3]int64{2, 95, 99}),
			rows([3]int64{2, 0, 100}, [3]int64{1, 10, 12}, [3]int64{1, 52, 53}, [3]int64{1, 60, 70}, [3]int64{1, 45, 51})},
		{"a left key absent from the group side",
			rows([3]int64{9, 0, 10}, [3]int64{1, 0, 10}),
			rows([3]int64{1, 2, 5}, [3]int64{3, 4, 8})},
		{"ω keys on both sides",
			rows([3]int64{omega, 0, 10}, [3]int64{1, 0, 10}, [3]int64{omega, 20, 30}),
			rows([3]int64{omega, 2, 5}, [3]int64{1, 4, 8}, [3]int64{omega, 22, 40}, [3]int64{1, 0, 3})},
		{"one-row runs",
			rows([3]int64{1, 0, 10}, [3]int64{2, 5, 15}, [3]int64{3, 10, 20}, [3]int64{4, 0, 5}),
			rows([3]int64{3, 12, 14}, [3]int64{1, 3, 6}, [3]int64{2, 0, 8}, [3]int64{5, 0, 20})},
	}
	keyMatch := func(l, r tuple.Tuple) bool { return !l.Vals[0].IsNull() && l.Vals[0].Equal(r.Vals[0]) }
	for _, c := range cases {
		for _, mode := range []AdjustMode{ModeAlign, ModeGaps, ModeNormalize} {
			for _, keys := range [][]expr.EquiPair{keyOnCol0(value.KindInt), nil} {
				match := keyMatch
				if keys == nil {
					match = func(l, r tuple.Tuple) bool { return true }
				}
				want := refAdjust(c.left, c.right, mode, match)
				for _, bridged := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%s/bridged=%v", c.name, mode, keyedName(keys), bridged), func(t *testing.T) {
						got := runFused(t, c.left, c.right, bridged, mode, keys, nil)
						assertSameRows(t, got, append([]tuple.Tuple(nil), want...))
					})
				}
			}
		}
	}
}

// TestColFusedAdjustKeyEvalError: an equi-key expression that fails to
// evaluate surfaces as an error from Open (group side) or NextCol (left
// side).
func TestColFusedAdjustKeyEvalError(t *testing.T) {
	rel := relation.NewBuilder("k string").Row(0, 5, "a").MustBuild()
	k0 := expr.ColIdx{Idx: 0, Typ: value.KindString}
	bad := expr.Add(k0, expr.Int(1)) // string + int fails at evaluation
	for side, keys := range [][]expr.EquiPair{
		{{Left: bad, Right: k0}},
		{{Left: k0, Right: bad}},
	} {
		op := NewColFusedAdjust(NewColScan(rel), NewColScan(rel), ModeAlign, keys, nil)
		err := op.Open()
		if err == nil {
			_, err = op.NextCol()
		}
		if err == nil {
			t.Errorf("bad key on side %d: key evaluation error was swallowed", side)
		}
		op.Close()
	}
}

// TestColFusedAdjustExamined counts the group candidates the run scan
// visits (examined) on the benchmark's adjustment shapes over
// internal/dataset at n = 8 000, seed 1, against the chain walk it
// replaced, which visited the whole key run of every left row. The scan
// may visit no more; where runs are long next to the window it must visit
// at most half. It must also visit every group row that feeds the sweep.
func TestColFusedAdjustExamined(t *testing.T) {
	a := dataset.Incumben(dataset.IncumbenConfig{Rows: 8000, Seed: 1})
	b := dataset.Incumben(dataset.IncumbenConfig{Rows: 8000, Seed: 2})
	dr, ds := dataset.Drand(2000, 1) // dr(rid, rgrp), ds(a, lo, hi)
	cases := []struct {
		name        string
		left, right *relation.Relation
		mode        AdjustMode
		lk, rk      int     // the equi key's column on each side
		bound       float64 // examined ÷ the chain walk's count
	}{
		{"align_ssn", a, b, ModeAlign, 0, 0, 1},
		{"normalize_pcn", a, b, ModeNormalize, 1, 1, 0.5},
		{"temporal_agg", a, a, ModeNormalize, 1, 1, 0.5},
		{"outer_join/dr-align-ds", dr, ds, ModeAlign, 1, 1, 0.5},
		{"outer_join/ds-align-dr", ds, dr, ModeAlign, 1, 1, 0.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := map[int64][]interval.Interval{}
			for _, r := range c.right.Tuples {
				k := r.Vals[c.rk].Int()
				runs[k] = append(runs[k], r.T)
			}
			walk, members, spans := 0, 0, 0
			for _, l := range c.left.Tuples {
				run := runs[l.Vals[c.lk].Int()]
				walk += len(run)
				for _, iv := range run {
					n := 0
					if c.mode != ModeNormalize {
						if iv.Overlaps(l.T) {
							n = 1
						}
					} else {
						for _, p := range []int64{iv.Ts, iv.Te} {
							if l.T.Ts < p && p < l.T.Te {
								n++
							}
						}
					}
					spans += n
					members += min(n, 1)
				}
			}
			k := func(i int) expr.Expr { return expr.ColIdx{Idx: i, Typ: value.KindInt} }
			op := NewColFusedAdjust(NewColScan(c.left), NewColScan(c.right), c.mode, []expr.EquiPair{{Left: k(c.lk), Right: k(c.rk)}}, nil)
			drainCol(t, op)
			t.Logf("examined %d, chain walk %d (%.3f), spans %d: examined ÷ spans = %.2f",
				op.examined, walk, float64(op.examined)/float64(walk), spans, float64(op.examined)/float64(spans))
			if float64(op.examined) > c.bound*float64(walk) {
				t.Errorf("examined %d candidates, want at most %.1f × the chain walk's %d", op.examined, c.bound, walk)
			}
			if op.examined < members {
				t.Errorf("examined %d candidates, fewer than the %d group rows that feed the sweep", op.examined, members)
			}
		})
	}
}
