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
	// the store when the input offers no image.
	SizeHint int

	store *colbatch.Batch // own, or a borrowed image
	own   colbatch.Batch
	table *keyTable // value key → value group
	gids  []int32   // per store row: its value group
	rank  []int32   // per value group: its position in value-key order
	rows  []int32   // store rows in (value key, Ts, Te desc) order
	keep  []int32   // surviving store rows, in output order (a prefix of rows' storage)
	kb    []byte
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
	if ab.store, err = drainColumnar(ab.Input, ab.SizeHint, &ab.own); err != nil {
		return err
	}
	n := ab.store.Len()
	ab.table = ab.table.reset(clampHint(n)) // absorb's input is mostly distinct already
	ab.gids = zeroed(ab.gids, n)
	gids := ab.gids
	for row := range gids {
		ab.kb = ab.store.AppendValsKey(ab.kb[:0], row)
		gids[row], _ = ab.table.insert(ab.kb)
	}
	ab.rows = ab.table.sortedIDs(ab.rows) // the value groups in key order, for now
	ab.rank = zeroed(ab.rank, len(ab.rows))
	rank := ab.rank
	for pos, g := range ab.rows {
		rank[g] = int32(pos)
	}
	ts, te := ab.store.TS, ab.store.TE
	ab.rows = identityPerm(ab.rows[:0], n)
	rows := ab.rows
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
	ab.store, ab.keep, ab.table = nil, nil, ab.table.small()
	ab.gids, ab.rank, ab.rows = kept(ab.gids), kept(ab.rank), kept(ab.rows)
	keepBatch(&ab.own)
	keepBatch(&ab.outB)
	return ab.Input.Close()
}
