// Package schema describes temporal relation schemas R = (A1, ..., Am, T)
// (Sec. 3.1). The valid-time attribute T is implicit: a Schema lists only
// the nontemporal attributes A1..Am; every tuple additionally carries its
// interval timestamp.
package schema

import (
	"fmt"
	"strings"

	"talign/internal/value"
)

// Attr is a named, typed nontemporal attribute.
type Attr struct {
	Name string
	Type value.Kind
}

// String renders "name type".
func (a Attr) String() string { return a.Name + " " + a.Type.String() }

// Schema is an ordered list of nontemporal attributes.
type Schema struct {
	Attrs []Attr
}

// New builds a schema from attributes; duplicate names are rejected.
func New(attrs ...Attr) (Schema, error) {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		key := strings.ToLower(a.Name)
		if seen[key] {
			return Schema{}, fmt.Errorf("schema: duplicate attribute %q", a.Name)
		}
		seen[key] = true
	}
	return Schema{Attrs: attrs}, nil
}

// MustNew is New but panics on error; for literals in tests and examples.
func MustNew(attrs ...Attr) Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of nontemporal attributes.
func (s Schema) Len() int { return len(s.Attrs) }

// Index returns the position of the attribute with the given name
// (case-insensitive), or -1 if absent.
func (s Schema) Index(name string) int {
	for i, a := range s.Attrs {
		if strings.EqualFold(a.Name, name) {
			return i
		}
	}
	return -1
}

// Indexes resolves a list of attribute names to positions; it fails on the
// first unknown name.
func (s Schema) Indexes(names ...string) ([]int, error) {
	out := make([]int, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("schema: unknown attribute %q", n)
		}
		out = append(out, i)
	}
	return out, nil
}

// Project returns the sub-schema at the given positions.
func (s Schema) Project(cols []int) Schema {
	attrs := make([]Attr, len(cols))
	for i, c := range cols {
		attrs[i] = s.Attrs[c]
	}
	return Schema{Attrs: attrs}
}

// Concat appends o's attributes after s's (join result schema). Name
// clashes are permitted here; resolution layers qualify names.
func (s Schema) Concat(o Schema) Schema {
	attrs := make([]Attr, 0, len(s.Attrs)+len(o.Attrs))
	attrs = append(attrs, s.Attrs...)
	attrs = append(attrs, o.Attrs...)
	return Schema{Attrs: attrs}
}

// UnionCompatible reports whether two schemas have the same arity and
// pairwise compatible types (identical, or both numeric). The set
// operators of the algebra require union compatible arguments (Sec. 3.1).
func (s Schema) UnionCompatible(o Schema) bool {
	if len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		a, b := s.Attrs[i].Type, o.Attrs[i].Type
		if a == b {
			continue
		}
		if a.Numeric() && b.Numeric() {
			continue
		}
		// An untyped (null-only) column unions with anything: it arises
		// from literal ω padding in outer-join style queries.
		if a == value.KindNull || b == value.KindNull {
			continue
		}
		return false
	}
	return true
}

// Equal reports whether both schemas have identical names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if !strings.EqualFold(s.Attrs[i].Name, o.Attrs[i].Name) || s.Attrs[i].Type != o.Attrs[i].Type {
			return false
		}
	}
	return true
}

// ResultColumns lists the schema as every client sees a result: the
// attributes' names and type names, then the valid-time bounds "ts" and
// "te" (int columns).
func (s Schema) ResultColumns() (cols, types []string) {
	cols, types = make([]string, 0, s.Len()+2), make([]string, 0, s.Len()+2)
	for _, at := range s.Attrs {
		cols = append(cols, at.Name)
		types = append(types, at.Type.String())
	}
	return append(cols, "ts", "te"), append(types, "int", "int")
}

// String renders "(a int, b string)".
func (s Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
