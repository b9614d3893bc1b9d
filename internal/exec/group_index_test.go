package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"talign/internal/dataset"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/raceflag"
	"talign/internal/relation"
	"talign/internal/tuple"
	"talign/internal/value"
)

// keyMatchCol0 is θ: column 0 equal on both sides, ω never matching.
func keyMatchCol0(l, r tuple.Tuple) bool {
	return !l.Vals[0].IsNull() && !r.Vals[0].IsNull() && l.Vals[0].Equal(r.Vals[0])
}

// indexCounts runs op once, draining it, and returns its rows and what its
// Stats counted: executions that built the group index, that shared one.
func indexCounts(t *testing.T, op *ColFusedAdjust) (rows []tuple.Tuple, built, shared int64) {
	t.Helper()
	if op.Stats == nil {
		op.Stats = new(OpStats)
	}
	b0, s0 := op.Stats.IndexBuilt.Load(), op.Stats.IndexShared.Load()
	rows = drainCol(t, op)
	return rows, op.Stats.IndexBuilt.Load() - b0, op.Stats.IndexShared.Load() - s0
}

// TestGroupIndexSharedConcurrently: 8 goroutines, each with ALIGN and
// NORMALIZE operators of its own over the same two relations and key,
// execute 50 times each; the group side's image is indexed exactly once,
// every other execution shares that index, and every answer is the
// definition's.
func TestGroupIndexSharedConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	left, right := colTestRel(rng, 40, false).Dedup(), colTestRel(rng, 60, false)
	want := map[AdjustMode]*relation.Relation{}
	for _, mode := range []AdjustMode{ModeAlign, ModeNormalize} {
		want[mode] = relation.New(left.Schema)
		want[mode].Tuples = refAdjust(left, right, mode, keyMatchCol0)
	}
	right.Columnar() // the one image
	stats := new(OpStats)
	const goroutines, executions = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []*ColFusedAdjust
			for _, mode := range []AdjustMode{ModeAlign, ModeNormalize} {
				op := NewColFusedAdjust(NewColScan(left), NewColScan(right), mode, keyOnCol0(value.KindInt), nil)
				op.Stats = stats
				ops = append(ops, op)
			}
			for i := range executions {
				for _, op := range ops {
					got, err := Collect(op)
					if err != nil {
						errs <- err
						return
					}
					if !relation.SetEqual(got, want[op.Mode]) {
						errs <- fmt.Errorf("execution %d of %s: answer differs from the definition's", i, op.Mode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := stats.IndexBuilt.Load(); n != 1 {
		t.Errorf("the group index was built %d times, want 1", n)
	}
	if n, want := stats.IndexShared.Load(), int64(2*goroutines*executions-1); n != want {
		t.Errorf("%d executions shared the index, want %d", n, want)
	}
}

// TestGroupIndexGoesStale: a row-born group side appended to after its
// first execution has a new image, and so a new index, and the answer
// follows the new rows.
func TestGroupIndexGoesStale(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	left, right := colTestRel(rng, 30, false).Dedup(), colTestRel(rng, 30, false)
	op := NewColFusedAdjust(NewColScan(left), NewColScan(right), ModeAlign, keyOnCol0(value.KindInt), nil)
	for i, step := range []struct {
		appends       int
		built, shared int64
	}{{0, 1, 0}, {0, 0, 1}, {5, 1, 0}, {0, 0, 1}} {
		for range step.appends {
			right.MustAppend(tuple.New(interval.New(0, 100), value.NewInt(rng.Int63n(8)), value.NewInt(0)))
		}
		got, built, shared := indexCounts(t, op)
		if built != step.built || shared != step.shared {
			t.Errorf("execution %d: built %d, shared %d, want %d, %d", i, built, shared, step.built, step.shared)
		}
		assertSameRows(t, got, refAdjust(left, right, ModeAlign, keyMatchCol0))
	}
}

// TestGroupIndexPerExecution: a group side that is not a base relation's
// image (here: filtered), or a key that is not a plain column (k + 0),
// builds its index at every Open, into the operator's own buffers.
func TestGroupIndexPerExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	left, right := colTestRel(rng, 30, false).Dedup(), colTestRel(rng, 40, false)
	k0 := expr.ColIdx{Idx: 0, Typ: value.KindInt}
	computed := []expr.EquiPair{{Left: k0, Right: expr.Add(k0, expr.Int(0))}}
	cases := map[string]func() *ColFusedAdjust{
		"filtered group side": func() *ColFusedAdjust {
			return NewColFusedAdjust(NewColScan(left), NewColFilter(NewColScan(right), expr.Bool(true)), ModeNormalize, keyOnCol0(value.KindInt), nil)
		},
		"computed key": func() *ColFusedAdjust {
			return NewColFusedAdjust(NewColScan(left), NewColScan(right), ModeNormalize, computed, nil)
		},
	}
	want := refAdjust(left, right, ModeNormalize, keyMatchCol0)
	for name, build := range cases {
		op := build()
		for i := range 3 {
			got, built, shared := indexCounts(t, op)
			if built != 1 || shared != 0 {
				t.Errorf("%s, execution %d: built %d, shared %d, want 1, 0", name, i, built, shared)
			}
			assertSameRows(t, got, append([]tuple.Tuple(nil), want...))
		}
	}
}

// TestGroupIndexEdges: a group side of ω keys only, an empty one, and a
// keyless θ (one run), each through a shared and an operator-owned index,
// against the definition.
func TestGroupIndexEdges(t *testing.T) {
	rows := func(spec ...[3]int64) *relation.Relation {
		b := relation.NewBuilder("k int", "p int")
		for i, s := range spec {
			var k any = s[0]
			if s[0] < 0 {
				k = nil
			}
			b.Row(s[1], s[2], k, int64(i))
		}
		return b.MustBuild()
	}
	left := rows([3]int64{1, 0, 10}, [3]int64{-1, 5, 15}, [3]int64{2, 20, 30})
	sides := map[string]*relation.Relation{
		"ω keys only": rows([3]int64{-1, 2, 5}, [3]int64{-1, 8, 25}),
		"empty":       rows(),
		"mixed":       rows([3]int64{1, 2, 5}, [3]int64{-1, 8, 25}, [3]int64{2, 0, 22}, [3]int64{1, 9, 40}),
	}
	for name, right := range sides {
		for _, keys := range [][]expr.EquiPair{keyOnCol0(value.KindInt), nil} {
			match := keyMatchCol0
			if keys == nil {
				match = func(l, r tuple.Tuple) bool { return true }
			}
			for _, mode := range []AdjustMode{ModeAlign, ModeGaps, ModeNormalize} {
				want := refAdjust(left, right, mode, match)
				for _, bridged := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%s/bridged=%v", name, keyedName(keys), mode, bridged), func(t *testing.T) {
						assertSameRows(t, runFused(t, left, right, bridged, mode, keys, nil), append([]tuple.Tuple(nil), want...))
					})
				}
			}
		}
	}
}

// TestGroupIndexBytesPin: the index kept with a base relation's image costs
// at most 16 B per group row — measured as the live heap it adds to a warm
// image of Incumben's b at n = 64 000, keyed on ssn (≈ 0.59 distinct keys
// per row). It reads ≈ 14.6: a 4 B row permutation, and per run a 4 B
// offset and a 4 B head offset plus its key after the prefix every key
// shares (10 of the 18 bytes of an int key). Keeping the whole encoded key
// per run would read ≈ 19; a hash table of the keys beside the runs, 24.
func TestGroupIndexBytesPin(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 64 000-row relation")
	}
	if raceflag.Enabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	const n = 64000
	b := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: 2})
	a := relation.NewBuilder("ssn int", "pcn int").Row(0, 10, int64(1), int64(1)).MustBuild()
	b.Columnar()
	a.Columnar()
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	op := NewColFusedAdjust(NewColScan(a), NewColScan(b), ModeAlign, keyOnCol0(value.KindInt), nil)
	if _, built, _ := indexCounts(t, op); built != 1 {
		t.Fatal("the execution did not build b's index")
	}
	op = nil
	after := live()
	perRow := float64(after-before) / n
	t.Logf("b.ssn index over %d rows: %d KiB retained, %.1f B per group row", n, (after-before)>>10, perRow)
	if perRow > 16 {
		t.Errorf("the retained group index costs %.1f B per group row, want at most 16", perRow)
	}
	runtime.KeepAlive(b)
}
