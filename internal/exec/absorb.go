package exec

import (
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Absorb implements the absorb operator α (Def. 12): it removes every
// tuple whose timestamp is a proper subset of a value-equivalent tuple's
// timestamp, and collapses exact duplicates (set semantics). The paper's
// SQL surfaces it as SELECT ABSORB.
type Absorb struct {
	batching
	Input Iterator

	rows []tuple.Tuple
	pos  int
}

// NewAbsorb builds the node.
func NewAbsorb(input Iterator) *Absorb { return &Absorb{Input: input} }

func (ab *Absorb) Schema() schema.Schema { return ab.Input.Schema() }

func (ab *Absorb) Open() error {
	if err := ab.Input.Open(); err != nil {
		return err
	}
	all, err := drainAppend(nil, ab.Input)
	if err != nil {
		return err
	}
	// Sort value-equivalent tuples together, by Ts ascending then Te
	// DESCENDING: a tuple is then properly contained in an earlier tuple of
	// its value group iff its Te does not exceed the maximal Te seen so far.
	sortAbsorb(all)
	ab.rows = ab.rows[:0]
	var groupStart int
	var maxTe int64
	for i, t := range all {
		newGroup := i == 0 || !t.ValsEqual(all[groupStart])
		if newGroup {
			groupStart = i
			maxTe = t.T.Te
			ab.rows = append(ab.rows, t)
			continue
		}
		if i > 0 && t.Equal(all[i-1]) {
			continue // exact duplicate
		}
		if t.T.Te <= maxTe {
			continue // properly contained in an earlier tuple
		}
		maxTe = t.T.Te
		ab.rows = append(ab.rows, t)
	}
	ab.pos = 0
	return nil
}

// sortAbsorb key-sorts rows by (values, Ts ascending, Te DESCENDING). The
// comparator is a total order — ties are fully identical tuples — so a
// non-stable key sort replaces the previous (pointlessly stable)
// comparator sort. The Te component is bitwise complemented to descend.
func sortAbsorb(rows []tuple.Tuple) {
	tuple.KeySortFunc(rows, func(t tuple.Tuple, key []byte) []byte {
		key = t.AppendKeyVals(key)
		key = value.AppendInt64Key(key, t.T.Ts)
		mark := len(key)
		key = value.AppendInt64Key(key, t.T.Te)
		for j := mark; j < len(key); j++ {
			key[j] ^= 0xff
		}
		return key
	})
}

func (ab *Absorb) Next() ([]tuple.Tuple, error) {
	if ab.pos >= len(ab.rows) {
		return nil, nil
	}
	end := ab.pos + ab.batchCap()
	if end > len(ab.rows) {
		end = len(ab.rows)
	}
	b := ab.rows[ab.pos:end:end]
	ab.pos = end
	return b, nil
}

func (ab *Absorb) Close() error {
	ab.rows = nil
	return ab.Input.Close()
}
