package server

import (
	"fmt"
	"strings"

	"talign/internal/csvio"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/storage"
)

// UseStore attaches an opened storage.Store and warm-boots the catalog
// from it: every persisted table is loaded (segment-backed, zone maps
// attached) and registered. From then on CREATE TABLE and DROP TABLE
// statements write through to the store, so a restarted talignd serves
// the same tables byte-for-byte. Returns the number of tables loaded.
func (s *Server) UseStore(st *storage.Store) (int, error) {
	s.ddl.Lock()
	defer s.ddl.Unlock()
	s.store = st
	n := 0
	for _, name := range st.Tables() {
		rel, err := st.Load(name)
		if err != nil {
			return n, storageError(err)
		}
		s.catalog.Register(name, rel)
		n++
	}
	return n, nil
}

// Store exposes the attached store (nil when the server is memory-only).
func (s *Server) Store() *storage.Store { return s.store }

// CreateTable loads a CSV file into a new table. With a store attached
// the data is persisted first (segments + WAL commit record) and the
// catalog registers the store's segment-backed image of it, so zone-map
// pruning applies from the first query; without one the table is
// memory-only, exactly like a talignd name=file.csv argument. A table
// that was persisted but cannot be loaded back is dropped from the store
// again (best effort), so a failed CREATE leaves the name free.
// CreateTable and DropTable hold the DDL mutex across their whole check
// → store → catalog sequence: of two concurrent CREATEs of one name one
// succeeds, and none lands between a DROP's store and catalog halves.
func (s *Server) CreateTable(name, csvPath string) (*relation.Relation, error) {
	s.ddl.Lock()
	defer s.ddl.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.catalog.Snapshot().Lookup(key); ok {
		return nil, fmt.Errorf("server: CREATE TABLE: table %q already exists", name)
	}
	rel, err := csvio.ReadFile(csvPath)
	if err != nil {
		return nil, fmt.Errorf("server: CREATE TABLE %s: %v", name, err)
	}
	if s.store != nil {
		if err := s.store.CreateTable(key, rel); err != nil {
			return nil, storageError(err)
		}
		loaded, err := s.store.Load(key)
		if err != nil {
			_ = s.store.DropTable(key) // the load error is the one to report
			return nil, storageError(err)
		}
		rel = loaded
	}
	s.catalog.Register(key, rel)
	return rel, nil
}

// DropTable removes a table from the catalog and, when a store is
// attached, from disk — also one that only the store knows. Cached plans
// over the table go with it, and its segment mappings once the executions
// still reading them have closed.
func (s *Server) DropTable(name string) error {
	s.ddl.Lock()
	defer s.ddl.Unlock()
	key := strings.ToLower(name)
	stored := s.store != nil && s.store.Has(key)
	if _, ok := s.catalog.Snapshot().Lookup(key); !ok && !stored {
		return fmt.Errorf("server: DROP TABLE: unknown table %q", name)
	}
	if stored {
		if err := s.store.DropTable(key); err != nil {
			return storageError(err)
		}
	}
	s.catalog.Drop(key)
	return nil
}

// storageError wraps a storage-layer failure (I/O, corruption, version
// mismatch) as the structured "internal" wire error: the client's
// statement was well-formed; the server's disk state is the problem.
func storageError(err error) error {
	return &sqlish.Error{Code: sqlish.ErrInternal, Msg: err.Error(), Pos: -1}
}
