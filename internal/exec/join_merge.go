package exec

import (
	"fmt"

	"talign/internal/expr"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// MergeJoin is a sort-merge equi-join. Both inputs MUST already be sorted
// ascending on the respective key expressions (the planner inserts Sort
// nodes). It supports inner, left outer, right outer, full outer, semi and
// anti joins with an optional residual condition; ω keys never match.
type MergeJoin struct {
	batching
	Left, Right Iterator
	Keys        []expr.EquiPair
	Residual    expr.Expr
	Type        JoinType
	MatchT      bool

	core joinCore
	out  schema.Schema

	lc       cursor
	rc       cursor
	l        tuple.Tuple
	lKey     []value.Value
	lOK      bool
	lDone    bool
	group    []mergeRow // current right-side key group
	gKey     []value.Value
	gValid   bool
	gPos     int
	lMatched bool
	rNext    tuple.Tuple
	rKey     []value.Value
	rOK      bool
	rDone    bool
	// queue holds unmatched right rows of finished groups (for right/full
	// outer).
	queue []tuple.Tuple
	qPos  int
	env   expr.Env // reused eval scratch
	done  bool
}

type mergeRow struct {
	t       tuple.Tuple
	matched bool
}

// NewMergeJoin constructs the node; see type comment for preconditions.
func NewMergeJoin(l, r Iterator, keys []expr.EquiPair, residual expr.Expr, typ JoinType, matchT bool) (*MergeJoin, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: merge join requires at least one equi key")
	}
	m := &MergeJoin{Left: l, Right: r, Keys: keys, Residual: residual, Type: typ, MatchT: matchT}
	m.core = joinCore{typ: typ, lWidth: l.Schema().Len(), rWidth: r.Schema().Len(), matchT: matchT}
	if typ.projectsLeftOnly() {
		m.out = l.Schema()
	} else {
		m.out = l.Schema().Concat(r.Schema())
	}
	return m, nil
}

func (m *MergeJoin) Schema() schema.Schema { return m.out }

func (m *MergeJoin) Open() error {
	if err := m.Left.Open(); err != nil {
		return err
	}
	if err := m.Right.Open(); err != nil {
		return err
	}
	m.lc.init(m.Left)
	m.rc.init(m.Right)
	m.lOK, m.lDone = false, false
	m.rOK, m.rDone = false, false
	m.gValid = false
	m.group = nil
	m.queue = nil
	m.qPos = 0
	m.done = false
	if err := m.advanceLeft(); err != nil {
		return err
	}
	return m.advanceRightRaw()
}

// evalKeys evaluates one side's key expressions into the reused dst
// buffer (no per-row allocation).
func (m *MergeJoin) evalKeys(t tuple.Tuple, left bool, dst []value.Value) ([]value.Value, error) {
	m.env = expr.Env{Vals: t.Vals, T: t.T}
	dst = dst[:0]
	for _, k := range m.Keys {
		e := k.Right
		if left {
			e = k.Left
		}
		v, err := e.Eval(&m.env)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func (m *MergeJoin) advanceLeft() error {
	t, ok, err := m.lc.next()
	if err != nil {
		return err
	}
	if !ok {
		m.lOK = false
		m.lDone = true
		return nil
	}
	key, err := m.evalKeys(t, true, m.lKey)
	if err != nil {
		return err
	}
	m.l, m.lKey, m.lOK = t, key, true
	m.lMatched = false
	m.gPos = 0
	return nil
}

func (m *MergeJoin) advanceRightRaw() error {
	t, ok, err := m.rc.next()
	if err != nil {
		return err
	}
	if !ok {
		m.rOK = false
		m.rDone = true
		return nil
	}
	key, err := m.evalKeys(t, false, m.rKey)
	if err != nil {
		return err
	}
	m.rNext, m.rKey, m.rOK = t, key, true
	return nil
}

// loadGroup pulls the full run of right tuples sharing m.rNext's key.
func (m *MergeJoin) loadGroup() error {
	m.group = m.group[:0]
	// Copy: m.rKey's buffer is overwritten by the advances below.
	m.gKey = append(m.gKey[:0], m.rKey...)
	for m.rOK && compareKeys(m.rKey, m.gKey) == 0 {
		m.group = append(m.group, mergeRow{t: m.rNext})
		if err := m.advanceRightRaw(); err != nil {
			return err
		}
	}
	m.gValid = true
	return nil
}

// flushGroup queues unmatched right rows of the current group and drops it.
func (m *MergeJoin) flushGroup() {
	if m.gValid && (m.Type == RightOuterJoin || m.Type == FullOuterJoin) {
		for _, row := range m.group {
			if !row.matched {
				m.queue = append(m.queue, row.t)
			}
		}
	}
	m.gValid = false
}

func compareKeys(a, b []value.Value) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func keyHasNull(k []value.Value) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func (m *MergeJoin) Next() ([]tuple.Tuple, error) {
	m.resetOut()
	m.reserve(1 + m.lc.pending() + m.rc.pending())
	target := m.batchCap()
	for len(m.outBuf) < target && !m.done {
		// Drain queued unmatched right rows first.
		if m.qPos < len(m.queue) {
			for m.qPos < len(m.queue) && len(m.outBuf) < target {
				m.push(m.core.padLeft(m.queue[m.qPos]))
				m.qPos++
			}
			continue
		}
		m.queue = m.queue[:0]
		m.qPos = 0

		if m.lDone {
			// Flush remaining right side for right/full outer.
			if m.gValid {
				m.flushGroup()
				continue
			}
			if m.rOK {
				if m.Type == RightOuterJoin || m.Type == FullOuterJoin {
					t := m.rNext
					if err := m.advanceRightRaw(); err != nil {
						return nil, err
					}
					m.push(m.core.padLeft(t))
					continue
				}
				m.rOK = false
				m.rDone = true
			}
			m.done = true
			continue
		}

		// ω keys on the left never match.
		if keyHasNull(m.lKey) {
			t := m.l
			if err := m.advanceLeft(); err != nil {
				return nil, err
			}
			switch m.Type {
			case LeftOuterJoin, FullOuterJoin:
				m.push(m.core.padRight(t))
			case AntiJoin:
				m.push(t)
			}
			continue
		}

		// Ensure a current right group positioned at or after the left key.
		if !m.gValid {
			// Skip right rows with ω keys (they can never match).
			for m.rOK && keyHasNull(m.rKey) {
				t := m.rNext
				if err := m.advanceRightRaw(); err != nil {
					return nil, err
				}
				if m.Type == RightOuterJoin || m.Type == FullOuterJoin {
					m.push(m.core.padLeft(t))
					if len(m.outBuf) >= target {
						// Resume the ω-skip on the next call.
						return m.outBuf, nil
					}
				}
			}
			if m.rOK {
				if err := m.loadGroup(); err != nil {
					return nil, err
				}
				m.gPos = 0
			}
		}

		if !m.gValid {
			// Right side exhausted: remaining lefts are unmatched.
			t := m.l
			if err := m.advanceLeft(); err != nil {
				return nil, err
			}
			switch m.Type {
			case LeftOuterJoin, FullOuterJoin:
				m.push(m.core.padRight(t))
			case AntiJoin:
				m.push(t)
			}
			continue
		}

		c := compareKeys(m.lKey, m.gKey)
		switch {
		case c < 0:
			// Left key before group: left is unmatched.
			t, matched := m.l, m.lMatched
			if err := m.advanceLeft(); err != nil {
				return nil, err
			}
			if !matched {
				switch m.Type {
				case LeftOuterJoin, FullOuterJoin:
					m.push(m.core.padRight(t))
				case AntiJoin:
					m.push(t)
				}
			}
		case c > 0:
			// Group before left key: finish it.
			m.flushGroup()
		default:
			// Same key: probe remaining group rows for this left tuple.
			semiEmitted := false
			for m.gPos < len(m.group) {
				row := &m.group[m.gPos]
				m.gPos++
				ok, err := m.core.matches(m.Residual, m.l, row.t)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				m.lMatched = true
				row.matched = true
				if m.Type == SemiJoin {
					// Emit and advance: the next left tuple starts probing
					// the group from the top (advanceLeft reset gPos).
					t := m.l
					if err := m.advanceLeft(); err != nil {
						return nil, err
					}
					m.push(t)
					semiEmitted = true
					break
				}
				if m.Type == AntiJoin {
					// disqualified; skip the rest of the group
					m.gPos = len(m.group)
					continue
				}
				m.push(m.core.combine(m.l, row.t))
				if len(m.outBuf) >= target {
					// Batch full mid-group: gPos persists, the next call
					// resumes probing for the same left tuple.
					return m.outBuf, nil
				}
			}
			if semiEmitted {
				continue
			}
			// Group exhausted for this left tuple.
			t, matched := m.l, m.lMatched
			if err := m.advanceLeft(); err != nil {
				return nil, err
			}
			if !matched {
				switch m.Type {
				case LeftOuterJoin, FullOuterJoin:
					m.push(m.core.padRight(t))
				case AntiJoin:
					m.push(t)
				}
			}
		}
	}
	return m.outBuf, nil
}

func (m *MergeJoin) Close() error {
	m.group = nil
	m.queue = nil
	err1 := m.Left.Close()
	err2 := m.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
