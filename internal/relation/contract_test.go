package relation_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"talign/internal/colbatch"
	"talign/internal/core"
	"talign/internal/csvio"
	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/lineage"
	"talign/internal/oracle"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/stats"
	"talign/internal/tuple"
	"talign/internal/value"
)

// The relation contract: a relation answers the same whichever way it
// was born. Every corpus entry is built row-born, over one image
// (FromColumnar) and over three segment tiles (FromSegments), and every
// reader — the relation's own methods, the oracle, lineage, Extend,
// ANALYZE, the CSV writer — must not be able to tell the three apart.

type contractCase struct {
	name  string
	attrs []schema.Attr
	rows  []tuple.Tuple
	csv   bool // Write → Read gives the relation back (no period / untyped column, no "" string)
}

func row(ts, te int64, vals ...value.Value) tuple.Tuple {
	return tuple.Tuple{Vals: vals, T: interval.New(ts, te)}
}

func contractCorpus() []contractCase {
	s, i, f := value.NewString, value.NewInt, value.NewFloat
	iv := func(ts, te int64) value.Value { return value.NewInterval(interval.New(ts, te)) }
	null := value.Null
	return []contractCase{
		{
			name:  "strings_ints_omega",
			attrs: []schema.Attr{{Name: "k", Type: value.KindString}, {Name: "v", Type: value.KindInt}},
			rows: []tuple.Tuple{
				row(0, 5, s("ann"), i(1)), row(3, 9, s("bob"), i(2)), row(9, 12, s("ann"), i(1)),
				row(2, 4, null, i(7)), row(4, 6, s("cy"), null), row(0, 5, s("ann"), i(1)), // an exact duplicate
				row(5, 8, s("ann"), i(1)), row(1, 3, s("dee, \"q\""), i(-4)),
			},
			csv: true,
		},
		{
			name:  "floats_nan_inf",
			attrs: []schema.Attr{{Name: "k", Type: value.KindFloat}, {Name: "b", Type: value.KindBool}},
			rows: []tuple.Tuple{
				row(0, 2, f(math.NaN()), value.NewBool(true)), row(1, 4, f(math.Inf(1)), value.NewBool(false)),
				row(2, 6, f(math.Inf(-1)), null), row(3, 5, f(-0.0), value.NewBool(true)),
				row(4, 7, f(2.5), value.NewBool(false)), row(6, 8, f(math.NaN()), value.NewBool(true)),
				row(0, 1, null, null),
			},
			csv: true,
		},
		{
			name:  "mixed_numeric",
			attrs: []schema.Attr{{Name: "k", Type: value.KindFloat}, {Name: "v", Type: value.KindInt}},
			rows: []tuple.Tuple{
				row(0, 3, f(1.5), i(1)), row(1, 4, i(2), i(2)), row(2, 5, f(2.25), f(3.25)), row(2, 5, i(7), i(4)),
			},
		},
		{
			name:  "periods",
			attrs: []schema.Attr{{Name: "k", Type: value.KindInterval}, {Name: "v", Type: value.KindInt}},
			rows: []tuple.Tuple{
				row(0, 4, iv(0, 4), i(1)), row(2, 6, iv(2, 6), i(2)), row(2, 6, null, i(3)), row(5, 9, iv(1, 2), i(1)),
			},
		},
		{
			name: "all_omega_columns",
			attrs: []schema.Attr{{Name: "k", Type: value.KindInt}, {Name: "z", Type: value.KindNull},
				{Name: "w", Type: value.KindString}},
			rows: []tuple.Tuple{
				row(0, 3, i(1), null, null), row(1, 2, i(2), null, null), row(2, 7, i(1), null, null),
				row(3, 4, i(3), null, null), row(3, 4, i(4), null, null),
			},
		},
		{
			name:  "empty",
			attrs: []schema.Attr{{Name: "k", Type: value.KindString}, {Name: "v", Type: value.KindInt}},
			csv:   true,
		},
	}
}

// births builds the three forms of one relation; every call builds fresh
// ones, so a mutator test cannot disturb its neighbours.
func births(attrs []schema.Attr, rows []tuple.Tuple) map[string]*relation.Relation {
	sch := schema.Schema{Attrs: attrs}
	var segs []relation.Segment
	for k := 0; k < 3; k++ {
		lo, hi := k*len(rows)/3, (k+1)*len(rows)/3
		img := colbatch.FromTuples(nil, sch, rows[lo:hi])
		segs = append(segs, relation.Segment{Img: img, Zone: colbatch.ZoneOf(img), Lo: lo, Hi: hi})
	}
	return map[string]*relation.Relation{
		"rows":     {Schema: sch, Tuples: slices.Clone(rows)},
		"columnar": relation.FromColumnar(colbatch.FromTuples(nil, sch, rows)),
		"segments": relation.FromSegments(sch, segs),
	}
}

func sameRows(a, b []tuple.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y tuple.Tuple) bool { return x.Equal(y) })
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestRelationContract(t *testing.T) {
	for _, c := range contractCorpus() {
		t.Run(c.name, func(t *testing.T) {
			ref := births(c.attrs, c.rows)["rows"]
			for name, rel := range births(c.attrs, c.rows) {
				if rel.Len() != len(c.rows) {
					t.Fatalf("%s: Len %d, want %d", name, rel.Len(), len(c.rows))
				}
				if name != "rows" && rel.Tuples != nil {
					t.Fatalf("%s: a batch-born relation holds tuples", name)
				}
				if !sameRows(rel.Rows(), c.rows) {
					t.Fatalf("%s: Rows\n%v\nwant\n%v", name, rel.Rows(), c.rows)
				}
				img := rel.Columnar()
				if img.Sel != nil || !sameRows(img.Materialize(nil), c.rows) {
					t.Fatalf("%s: Columnar holds other rows", name)
				}
				if rel.Columnar() != img {
					t.Fatalf("%s: Columnar is not cached", name)
				}
				segs := rel.Segments()
				if name != "segments" && segs != nil {
					t.Fatalf("%s: %d segments on a relation not born from any", name, len(segs))
				}
				if name == "segments" {
					var tiled []tuple.Tuple
					for _, sg := range segs {
						if sg.Lo != len(tiled) {
							t.Fatalf("segment starts at %d, want %d", sg.Lo, len(tiled))
						}
						tiled = sg.Img.Materialize(tiled)
					}
					if len(segs) != 3 || !sameRows(tiled, c.rows) {
						t.Fatalf("segments do not tile the rows")
					}
				}
				if (name == "rows") != (rel.Parts() == nil) {
					t.Fatalf("%s: Parts() = %v", name, rel.Parts())
				}
				for other, o := range births(c.attrs, c.rows) {
					if !relation.SetEqual(rel, o) || !relation.SetEqual(o, rel) {
						t.Fatalf("%s is not SetEqual to %s", name, other)
					}
					if a, b := relation.Diff(rel, o); len(a)+len(b) != 0 {
						t.Fatalf("Diff(%s, %s) = %v, %v", name, other, a, b)
					}
				}
				gts, gte := rel.ValidTimes()
				wts, wte := ref.ValidTimes()
				if !slices.Equal(gts, wts) || !slices.Equal(gte, wte) {
					t.Fatalf("%s: ValidTimes %v %v, want %v %v", name, gts, gte, wts, wte)
				}
				if got, want := rel.ActiveDomain(), ref.ActiveDomain(); !slices.Equal(got, want) {
					t.Fatalf("%s: ActiveDomain %v, want %v", name, got, want)
				}
				gs, gok := rel.Span()
				ws, wok := ref.Span()
				if gs != ws || gok != wok {
					t.Fatalf("%s: Span %v %v, want %v %v", name, gs, gok, ws, wok)
				}
				points := append(ref.ActiveDomain(), ws.Ts-1, ws.Te+1)
				for _, p := range points {
					if !sameRows(rel.Timeslice(p).Tuples, ref.Timeslice(p).Tuples) {
						t.Fatalf("%s: Timeslice(%d) differs", name, p)
					}
					if !slices.Equal(rel.TimesliceIdx(p), ref.TimesliceIdx(p)) {
						t.Fatalf("%s: TimesliceIdx(%d) differs", name, p)
					}
				}
				if got, want := errText(rel.DuplicateFree()), errText(ref.DuplicateFree()); got != want {
					t.Fatalf("%s: DuplicateFree %q, want %q", name, got, want)
				}
				if rel.String() != ref.String() {
					t.Fatalf("%s: String\n%s\nwant\n%s", name, rel, ref)
				}
				cl := rel.Clone()
				if !sameRows(cl.Tuples, c.rows) || cl.Segments() != nil || cl.Parts() != nil {
					t.Fatalf("%s: Clone is not a row-born copy", name)
				}
				if co := rel.Coalesce(); !sameRows(co.Tuples, ref.Coalesce().Tuples) {
					t.Fatalf("%s: Coalesce differs", name)
				}
			}
		})
	}
}

// TestRowsDerivedOnce: concurrent row readers (EXPLAIN ANALYZE, row-path
// scans) of one batch-born relation share one derivation.
func TestRowsDerivedOnce(t *testing.T) {
	c := contractCorpus()[0]
	for name, rel := range births(c.attrs, c.rows) {
		got := make([][]tuple.Tuple, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = rel.Rows()
			}()
		}
		wg.Wait()
		for g := range got {
			if len(got[g]) != len(c.rows) || &got[g][0] != &got[0][0] {
				t.Fatalf("%s: goroutine %d read another backing slice", name, g)
			}
		}
	}
}

// TestMutatorsMakeRowBorn: a mutated batch-born relation keeps no stale
// image, segment list or derived rows.
func TestMutatorsMakeRowBorn(t *testing.T) {
	c := contractCorpus()[0]
	extra := row(20, 21, value.NewString("zed"), value.NewInt(9))
	mutators := map[string]func(r *relation.Relation){
		"Append":        func(r *relation.Relation) { r.MustAppend(extra) },
		"SortCanonical": func(r *relation.Relation) { r.SortCanonical() },
		"Dedup":         func(r *relation.Relation) { r.Dedup() },
	}
	for mname, mutate := range mutators {
		want := births(c.attrs, c.rows)["rows"]
		mutate(want)
		for name, rel := range births(c.attrs, c.rows) {
			rel.Columnar() // a cached image must not survive the mutation
			rel.Rows()
			mutate(rel)
			if rel.Parts() != nil || rel.Segments() != nil {
				t.Fatalf("%s on %s: still batch-born", mname, name)
			}
			if rel.Len() != want.Len() || !sameRows(rel.Tuples, want.Tuples) || !sameRows(rel.Rows(), want.Tuples) {
				t.Fatalf("%s on %s:\n%s\nwant\n%s", mname, name, rel, want)
			}
			if !sameRows(rel.Columnar().Materialize(nil), want.Tuples) {
				t.Fatalf("%s on %s: stale columnar image", mname, name)
			}
		}
	}
}

// renamed suffixes every attribute name, for the right-hand side of a join.
func renamed(attrs []schema.Attr) []schema.Attr {
	out := slices.Clone(attrs)
	for i := range out {
		out[i].Name += "2"
	}
	return out
}

func sameValue(a, b value.Value) bool { return a.Kind() == b.Kind() && a.Compare(b) == 0 }

func sameHist(a, b stats.Histogram) bool { return slices.EqualFunc(a.Bounds, b.Bounds, sameValue) }

// sameTable compares two ANALYZE outputs field by field (reflect.DeepEqual
// would call two NaN bounds different).
func sameTable(a, b *stats.Table) error {
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("rows/cols %d/%d vs %d/%d", a.Rows, len(a.Cols), b.Rows, len(b.Cols))
	}
	for i := range a.Cols {
		x, y := a.Cols[i], b.Cols[i]
		if x.NullFrac != y.NullFrac || x.Distinct != y.Distinct || !sameValue(x.Min, y.Min) ||
			!sameValue(x.Max, y.Max) || !sameHist(x.Hist, y.Hist) {
			return fmt.Errorf("column %d: %+v vs %+v", i, *x, *y)
		}
	}
	x, y := a.T, b.T
	if x.Span != y.Span || x.AvgDur != y.AvgDur || x.DistinctT != y.DistinctT || x.AvgOverlap != y.AvgOverlap ||
		!sameHist(x.DurHist, y.DurHist) {
		return fmt.Errorf("valid time: %+v vs %+v", x, y)
	}
	return nil
}

// TestReadersCannotTellBirths: the packages that take arbitrary relations
// give the same result on a batch-born relation as on its row-born twin.
func TestReadersCannotTellBirths(t *testing.T) {
	for _, c := range contractCorpus() {
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				rels  map[string]*relation.Relation
				texts map[string]string
			}
			run := func(r, s *relation.Relation) outcome {
				o := outcome{rels: map[string]*relation.Relation{}, texts: map[string]string{}}
				rel := func(name string, x *relation.Relation, err error) {
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					o.rels[name] = x
				}
				sel, err := oracle.Selection(r, expr.Eq(expr.C("k"), expr.C("k")))
				rel("selection", sel, err)
				proj, err := oracle.Projection(r, "k")
				rel("projection", proj, err)
				agg, err := oracle.Aggregation(r, []string{"k"}, []oracle.AggSpec{{Op: oracle.CountStar, Name: "n"}})
				rel("aggregation", agg, err)
				diff, err := oracle.Difference(r, sel)
				rel("difference", diff, err)
				join, err := oracle.LeftOuterJoin(r, s, expr.Eq(expr.C("k"), expr.C("k2")))
				rel("left outer join", join, err)
				ext, err := core.Extend(r, "u")
				rel("extend", ext, err)
				o.texts["verify projection"] = errText(lineage.Verify(proj, lineage.Projection(r, []int{0})))
				o.texts["verify difference"] = errText(lineage.Verify(diff, lineage.Difference(r, sel)))
				var buf bytes.Buffer
				if err := csvio.Write(&buf, r); err != nil {
					t.Fatalf("csvio.Write: %v", err)
				}
				o.texts["csv"] = buf.String()
				back, err := csvio.Read(&buf)
				o.texts["csv read error"] = errText(err)
				if c.csv {
					rel("csv round trip", back, err)
					if !relation.SetEqual(back, r) {
						t.Fatalf("csv round trip lost rows:\n%s\nwant\n%s", back, r)
					}
				} else if err == nil {
					t.Fatalf("csv: a relation marked unreadable was read back")
				}
				return o
			}
			left, right := births(c.attrs, c.rows), births(renamed(c.attrs), c.rows)
			want := run(left["rows"], right["rows"])
			if want.texts["verify projection"] != "" || want.texts["verify difference"] != "" {
				t.Fatalf("the oracle's results do not verify: %v", want.texts)
			}
			wantStats := stats.Analyze(left["rows"])
			for _, name := range []string{"columnar", "segments"} {
				got := run(left[name], right[name])
				for op, w := range want.rels {
					if !relation.SetEqual(got.rels[op], w) {
						t.Fatalf("%s over %s:\n%s\nwant\n%s", op, name, got.rels[op], w)
					}
				}
				for what, w := range want.texts {
					if got.texts[what] != w {
						t.Fatalf("%s over %s: %q, want %q", what, name, got.texts[what], w)
					}
				}
				if err := sameTable(stats.Analyze(left[name]), wantStats); err != nil {
					t.Fatalf("stats.Analyze over %s: %v", name, err)
				}
				if left[name].Tuples != nil {
					t.Fatalf("%s: a reader left tuples on a batch-born relation", name)
				}
			}
		})
	}
}
