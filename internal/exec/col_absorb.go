package exec

import (
	"cmp"
	"slices"

	"talign/internal/colbatch"
	"talign/internal/schema"
)

// ColAbsorb implements the absorb operator α (Def. 12) over columnar
// batches: it removes every row whose timestamp is a proper subset of a
// value-equivalent row's timestamp, and collapses exact duplicates (set
// semantics). The paper's SQL surfaces it as SELECT ABSORB.
//
// The input is drained into a columnar store; value-equivalent rows meet
// in the shared keyTable under the encoding of their attribute values.
// Rows are then ordered by (value key, Ts ascending, Te DESCENDING) — the
// value keys are sorted once per distinct value, not once per row — so a
// row is contained in an earlier row of its value group iff its Te does
// not exceed the maximal Te seen so far. Survivors are gathered by index
// into a reused output batch, in that order.
type ColAbsorb struct {
	batching
	Input ColIterator
	// SizeHint is the planner's estimate of the input's rows; it presizes
	// the store when the input is not a bare scan.
	SizeHint int

	store *colbatch.Batch
	keep  []int32 // surviving store rows, in output order
	outB  colbatch.Batch
	pos   int
}

// NewColAbsorb builds the operator.
func NewColAbsorb(input ColIterator) *ColAbsorb { return &ColAbsorb{Input: input} }

// Schema implements ColIterator.
func (ab *ColAbsorb) Schema() schema.Schema { return ab.Input.Schema() }

// Open implements ColIterator: it consumes the whole input.
func (ab *ColAbsorb) Open() error {
	if err := ab.Input.Open(); err != nil {
		return err
	}
	var err error
	if ab.store, err = drainColumnar(ab.Input, ab.SizeHint); err != nil {
		return err
	}
	n := ab.store.Len()
	table := newKeyTable(clampHint(n)) // absorb's input is mostly distinct already
	gids := make([]int32, n)
	var kb []byte
	for row := range gids {
		kb = ab.store.AppendValsKey(kb[:0], row)
		gids[row], _ = table.insert(kb)
	}
	rank := make([]int32, table.len()) // a value group's position in value-key order
	for pos, g := range table.sortedIDs() {
		rank[g] = int32(pos)
	}
	ts, te := ab.store.TS, ab.store.TE
	rows := identityPerm(nil, n)
	slices.SortFunc(rows, func(a, b int32) int {
		if c := cmp.Compare(rank[gids[a]], rank[gids[b]]); c != 0 {
			return c
		}
		if c := cmp.Compare(ts[a], ts[b]); c != 0 {
			return c
		}
		return cmp.Compare(te[b], te[a])
	})
	ab.keep = rows[:0]
	group, maxTe := int32(-1), int64(0)
	for _, row := range rows {
		switch {
		case gids[row] != group:
			group, maxTe = gids[row], te[row]
		case te[row] <= maxTe:
			continue // a duplicate of, or contained in, an earlier row
		default:
			maxTe = te[row]
		}
		ab.keep = append(ab.keep, row)
	}
	ab.outB.ResetSchema(ab.Schema())
	ab.pos = 0
	return nil
}

// NextCol implements ColIterator.
func (ab *ColAbsorb) NextCol() (*colbatch.Batch, error) {
	if ab.pos >= len(ab.keep) {
		return nil, nil
	}
	idx := ab.keep[ab.pos:min(ab.pos+ab.batchCap(), len(ab.keep))]
	ab.pos += len(idx)
	ab.outB.Reset()
	reserveOut(&ab.outB, len(idx), ab.batchCap())
	ab.outB.AppendRows(ab.store, idx)
	return &ab.outB, nil
}

// Close implements ColIterator.
func (ab *ColAbsorb) Close() error {
	ab.store, ab.keep = nil, nil
	return ab.Input.Close()
}
