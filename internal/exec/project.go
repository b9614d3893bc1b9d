package exec

import (
	"fmt"

	"talign/internal/expr"
	"talign/internal/interval"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Filter passes through tuples satisfying Pred (σ). Pred must be bound
// against Input's schema; it is evaluated with env.T = the tuple's T, so
// predicates over the tuple's own valid time are possible.
type Filter struct {
	batching
	Input Iterator
	Pred  expr.Expr

	env  expr.Env // reused eval scratch
	done bool
}

// NewFilter builds a filter node.
func NewFilter(input Iterator, pred expr.Expr) *Filter {
	return &Filter{Input: input, Pred: pred}
}

func (f *Filter) Schema() schema.Schema { return f.Input.Schema() }

func (f *Filter) Open() error {
	f.done = false
	return f.Input.Open()
}

func (f *Filter) Close() error { return f.Input.Close() }

func (f *Filter) Next() ([]tuple.Tuple, error) {
	f.resetOut()
	target := f.batchCap()
	// Keep consuming input until the output batch fills: a selective
	// predicate must not degrade downstream operators to tiny batches.
	for len(f.outBuf) < target && !f.done {
		in, err := f.Input.Next()
		if err != nil {
			return nil, err
		}
		if len(in) == 0 {
			// Latch exhaustion: the contract forbids calling the child's
			// Next again after an empty batch.
			f.done = true
			break
		}
		f.reserve(len(in))
		for i := range in {
			f.env = expr.Env{Vals: in[i].Vals, T: in[i].T}
			keep, err := expr.EvalBool(f.Pred, &f.env)
			if err != nil {
				return nil, err
			}
			if keep {
				f.push(in[i])
			}
		}
	}
	return f.outBuf, nil
}

// TPolicy controls what valid time a Project node assigns to its outputs.
type TPolicy uint8

const (
	// TKeep propagates the input tuple's T (the default for π).
	TKeep TPolicy = iota
	// TZero marks outputs as nontemporal (zero interval).
	TZero
	// TFromExpr computes T from TExpr, which must yield a period value;
	// tuples whose TExpr is ω or empty are dropped (used by the standard-SQL
	// baseline to build intersection timestamps).
	TFromExpr
)

// Project evaluates Exprs over each input tuple (π plus computed columns).
type Project struct {
	batching
	Input Iterator
	Exprs []expr.Expr
	Out   schema.Schema
	TMode TPolicy
	TExpr expr.Expr // used when TMode == TFromExpr

	env  expr.Env // reused eval scratch
	done bool
}

// NewProject builds a projection. names gives the output attribute names;
// types are inferred from the bound expressions.
func NewProject(input Iterator, names []string, exprs []expr.Expr) (*Project, error) {
	if len(names) != len(exprs) {
		return nil, fmt.Errorf("exec: %d names for %d expressions", len(names), len(exprs))
	}
	attrs := make([]schema.Attr, len(exprs))
	for i, e := range exprs {
		attrs[i] = schema.Attr{Name: names[i], Type: e.Type()}
	}
	return &Project{Input: input, Exprs: exprs, Out: schema.Schema{Attrs: attrs}}, nil
}

func (p *Project) Schema() schema.Schema { return p.Out }

func (p *Project) Open() error {
	p.done = false
	return p.Input.Open()
}

func (p *Project) Close() error { return p.Input.Close() }

func (p *Project) Next() ([]tuple.Tuple, error) {
	p.resetOut()
	target := p.batchCap()
	for len(p.outBuf) < target && !p.done {
		in, err := p.Input.Next()
		if err != nil {
			return nil, err
		}
		if len(in) == 0 {
			p.done = true
			break
		}
		p.reserve(len(in))
		// One contiguous allocation of output values for the whole batch.
		flat := make([]value.Value, len(in)*len(p.Exprs))
		for i := range in {
			p.env = expr.Env{Vals: in[i].Vals, T: in[i].T}
			vals := flat[i*len(p.Exprs) : (i+1)*len(p.Exprs) : (i+1)*len(p.Exprs)]
			for k, e := range p.Exprs {
				v, err := e.Eval(&p.env)
				if err != nil {
					return nil, err
				}
				vals[k] = v
			}
			var ts interval.Interval
			switch p.TMode {
			case TKeep:
				ts = in[i].T
			case TZero:
				ts = interval.Interval{}
			case TFromExpr:
				v, err := p.TExpr.Eval(&p.env)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					continue // empty or unknown period: drop the tuple
				}
				ts = v.Interval()
				if !ts.Valid() {
					continue
				}
			}
			p.push(tuple.Tuple{Vals: vals, T: ts})
		}
	}
	return p.outBuf, nil
}

// SortKey is one ordering term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort materializes its input and emits it ordered by Keys (values compare
// with the total order of the value package; ω sorts first). Rows are
// decorated with order-preserving byte keys — sort terms first (DESC terms
// bitwise complemented), then the full tuple key as a deterministic tie
// break — and sorted bytewise, with a radix fast path for fixed-width
// schemas. The sort is not stable; the tie break makes the order total.
type Sort struct {
	batching
	Input Iterator
	Keys  []SortKey

	rows  []tuple.Tuple
	keys  [][]byte
	arena []byte
	env   expr.Env // reused eval scratch
	pos   int
	open  bool
}

// NewSort builds a sort node.
func NewSort(input Iterator, keys ...SortKey) *Sort {
	return &Sort{Input: input, Keys: keys}
}

func (s *Sort) Schema() schema.Schema { return s.Input.Schema() }

func (s *Sort) Open() error {
	if err := s.Input.Open(); err != nil {
		return err
	}
	rows, err := drainAppend(s.rows[:0], s.Input)
	if err != nil {
		return err
	}
	// Encode one byte key per row into a shared arena; the arena and key
	// slice are reused across Opens.
	arena := s.arena[:0]
	keys := s.keys[:0]
	for i := range rows {
		s.env = expr.Env{Vals: rows[i].Vals, T: rows[i].T}
		start := len(arena)
		for k := range s.Keys {
			v, err := s.Keys[k].Expr.Eval(&s.env)
			if err != nil {
				return err
			}
			mark := len(arena)
			arena = v.AppendKey(arena)
			if s.Keys[k].Desc {
				for j := mark; j < len(arena); j++ {
					arena[j] ^= 0xff
				}
			}
		}
		// Total tie break keeps output deterministic.
		arena = rows[i].AppendKey(arena)
		keys = append(keys, arena[start:len(arena):len(arena)])
	}
	tuple.KeySort(rows, keys)
	s.rows, s.keys, s.arena = rows, keys, arena
	s.pos = 0
	s.open = true
	return nil
}

func (s *Sort) Next() ([]tuple.Tuple, error) {
	if !s.open || s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + s.batchCap()
	if end > len(s.rows) {
		end = len(s.rows)
	}
	b := s.rows[s.pos:end:end]
	s.pos = end
	return b, nil
}

func (s *Sort) Close() error {
	s.rows = nil
	s.keys = nil
	s.arena = nil
	s.open = false
	return s.Input.Close()
}
