package server

import (
	"fmt"
	"sync"

	"talign/internal/sqlish"
)

// Session is per-client state: a namespace of named prepared statements.
// A session stores only the parsed statement — the plans themselves live
// in the shared PlanCache, valid while their tables are unchanged, so a
// statement prepared before a change to one of its tables transparently
// re-plans on its next execution (and LRU eviction can never break a
// session, only cost a re-plan).
type Session struct {
	// ID names the session (client-chosen).
	ID string

	mu sync.Mutex
	// stmts holds each named statement as parsed and lifted once, at
	// /prepare: its shape key is the plan-cache key component, its lifted
	// literals bind on every execution, and a coordinator plans it
	// without parsing again. Everything else (param count, schema)
	// lives on the cached Prepared and may legitimately change when a
	// catalog change forces a re-plan.
	stmts map[string]*sqlish.Statement
}

// setStmt registers (or replaces) a named statement.
func (s *Session) setStmt(name string, st *sqlish.Statement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stmts[name] = st
}

// stmt looks up a named statement.
func (s *Session) stmt(name string) (*sqlish.Statement, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stmts[name]
	if !ok {
		return nil, fmt.Errorf("server: session %q has no prepared statement %q", s.ID, name)
	}
	return st, nil
}

// sessions is the server's session table.
type sessions struct {
	mu sync.Mutex
	m  map[string]*Session
}

// DefaultSessionID is used when a request names no session.
const DefaultSessionID = "default"

// get returns the session with the given id, creating it on first use; an
// empty id maps to DefaultSessionID.
func (t *sessions) get(id string) *Session {
	if id == "" {
		id = DefaultSessionID
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = map[string]*Session{}
	}
	s, ok := t.m[id]
	if !ok {
		s = &Session{ID: id, stmts: map[string]*sqlish.Statement{}}
		t.m[id] = s
	}
	return s
}

// count returns the number of live sessions.
func (t *sessions) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
