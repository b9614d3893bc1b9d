package server

// DisablePurge removes the catalog → plan-cache purge hook, leaving
// per-lookup validation (Snapshot.Current) as the only thing between a
// changed table and its cached plans. The churn differential runs once
// this way: validation alone must keep every result right, which is what
// makes a broken validator fail it.
func (s *Server) DisablePurge() { s.catalog.changed = nil }
