package colbatch

import "talign/internal/value"

// ZoneCol summarizes one attribute column of a segment: the minimum and
// maximum non-ω values under value.Compare, or ω for both when every row
// of the column is ω. Nulls reports how many rows are ω.
type ZoneCol struct {
	Min   value.Value
	Max   value.Value
	Nulls int
}

// AllNull reports whether the column holds no non-ω value, in which case
// any column-vs-constant comparison predicate eliminates the segment.
func (z ZoneCol) AllNull() bool { return z.Min.IsNull() }

// Zone is a segment's zone map: row count, the valid-time bounding box
// (min/max of TS and TE over all rows), and per-column min/max. The
// optimizer prunes a segment when a pushed-down predicate's admissible
// range is disjoint from the zone; internal/stats aggregates zones into
// table statistics so freshly loaded tables get realistic estimates
// before their first ANALYZE.
type Zone struct {
	Rows  int
	MinTS int64
	MaxTS int64
	MinTE int64
	MaxTE int64
	Cols  []ZoneCol
}

// ZoneOf computes the zone map of a batch with no selection vector.
// A zero-row batch yields a zone with Rows == 0 and inverted time bounds
// unset to zero; callers partitioning data never emit empty segments.
func ZoneOf(b *Batch) Zone {
	z := Zone{Rows: b.Len(), Cols: make([]ZoneCol, len(b.Cols))}
	if b.Sel != nil {
		panic("colbatch: ZoneOf over a selection")
	}
	for i := 0; i < b.Len(); i++ {
		ts, te := b.TS[i], b.TE[i]
		if i == 0 {
			z.MinTS, z.MaxTS, z.MinTE, z.MaxTE = ts, ts, te, te
		} else {
			if ts < z.MinTS {
				z.MinTS = ts
			}
			if ts > z.MaxTS {
				z.MaxTS = ts
			}
			if te < z.MinTE {
				z.MinTE = te
			}
			if te > z.MaxTE {
				z.MaxTE = te
			}
		}
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		zc := &z.Cols[c]
		zc.Min, zc.Max = value.Null, value.Null
		for i := 0; i < b.Len(); i++ {
			x := v.Value(i)
			if x.IsNull() {
				zc.Nulls++
				continue
			}
			if zc.Min.IsNull() || x.Compare(zc.Min) < 0 {
				zc.Min = x
			}
			if zc.Max.IsNull() || x.Compare(zc.Max) > 0 {
				zc.Max = x
			}
		}
	}
	return z
}
