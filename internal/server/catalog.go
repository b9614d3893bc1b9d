package server

import (
	"maps"
	"sort"
	"strings"
	"sync"

	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/stats"
)

// Catalog is the server's thread-safe relation registry. It is
// copy-on-write: readers take an immutable Snapshot (plain maps shared by
// reference, never mutated after publication) without blocking writers,
// and every write replaces the maps wholesale. The unit of plan
// invalidation is the entry, not the catalog: a cached plan is served
// only while a snapshot holds exactly the (relation, statistics) pointers
// it was built from (Snapshot.Current), and every write tells the owning
// server which table changed, so the plans over that table — and no
// others — are purged at once. The version counters are for display
// (/healthz, /stats); nothing keys on them.
type Catalog struct {
	mu           sync.RWMutex
	version      uint64
	statsVersion uint64
	rels         map[string]*relation.Relation
	stats        map[string]*stats.Table

	// changed, set by the owning Server before the catalog is shared, is
	// called with the lower-case name of a table whose relation or
	// statistics a write just replaced or removed: after the write is
	// published, outside the lock.
	changed func(table string)
}

// NewCatalog returns an empty catalog at version 0.
func NewCatalog() *Catalog {
	return &Catalog{rels: map[string]*relation.Relation{}, stats: map[string]*stats.Table{}}
}

// write runs one mutation of table key under the lock and reports the
// table as changed, once the lock is released, if the mutation says so.
func (c *Catalog) write(key string, mutate func() bool) bool {
	c.mu.Lock()
	ok := mutate()
	c.mu.Unlock()
	if ok && c.changed != nil {
		c.changed(key)
	}
	return ok
}

// Register adds (or replaces) a named relation, invalidating the cached
// plans over that name. The relation must not be mutated after
// registration: snapshots and running executions keep referencing it.
// Statistics of a replaced relation are dropped (re-run ANALYZE to
// refresh them).
func (c *Catalog) Register(name string, rel *relation.Relation) {
	key := strings.ToLower(name)
	c.write(key, func() bool {
		c.rels = maps.Clone(c.rels)
		c.rels[key] = rel
		c.dropStats(key)
		c.version++
		return true
	})
}

// Drop removes a named relation (and its statistics), reporting whether
// it existed, and invalidates the cached plans over it: only executions
// already running keep the dropped relation reachable.
func (c *Catalog) Drop(name string) bool {
	key := strings.ToLower(name)
	return c.write(key, func() bool {
		if _, ok := c.rels[key]; !ok {
			return false
		}
		c.rels = maps.Clone(c.rels)
		delete(c.rels, key)
		c.dropStats(key)
		c.version++
		return true
	})
}

// SetStatsIf installs a table's ANALYZE statistics — invalidating the
// cached plans over that table, whose estimates could change — only
// if the relation registered under name is still rel, reporting whether
// it did. ANALYZE computes outside the catalog lock; this compare-and-set
// discards results that raced with a Register/Drop of the same table,
// preserving the invariant that statistics always describe the
// registered relation.
func (c *Catalog) SetStatsIf(name string, rel *relation.Relation, t *stats.Table) bool {
	key := strings.ToLower(name)
	return c.write(key, func() bool {
		if c.rels[key] != rel {
			return false
		}
		c.stats = maps.Clone(c.stats)
		c.stats[key] = t
		c.statsVersion++
		return true
	})
}

// dropStats forgets a table's statistics, replacing the map if it held
// any (caller holds the lock).
func (c *Catalog) dropStats(key string) {
	if _, had := c.stats[key]; had {
		c.stats = maps.Clone(c.stats)
		delete(c.stats, key)
	}
}

// Version returns the current catalog version: a count of relation
// changes, for display only.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Snapshot returns an immutable view of the catalog as it is now.
// Snapshots implement sqlish.Catalog and plan.StatsSource and stay valid
// (and consistent) however the catalog changes afterwards.
func (c *Catalog) Snapshot() Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Snapshot{Version: c.version, StatsVersion: c.statsVersion, rels: c.rels, stats: c.stats}
}

// Snapshot is one immutable catalog state: the maps are shared, never
// mutated, and safe for concurrent lookups.
type Snapshot struct {
	// Version counts the relation changes up to this snapshot and
	// StatsVersion the statistics changes (ANALYZE moves only this one).
	// Display only: plan validity is Current, not a version comparison.
	Version      uint64
	StatsVersion uint64

	rels  map[string]*relation.Relation
	stats map[string]*stats.Table
}

// Lookup implements sqlish.Catalog.
func (s Snapshot) Lookup(name string) (*relation.Relation, bool) {
	rel, ok := s.rels[strings.ToLower(name)]
	return rel, ok
}

// TableStats implements plan.StatsSource: the table's ANALYZE statistics,
// or nil when it was never analyzed.
func (s Snapshot) TableStats(name string) *stats.Table {
	return s.stats[strings.ToLower(name)]
}

// Current reports whether prep was built from exactly the entries this
// snapshot holds: every table it reads still resolves to the same
// relation and the same statistics, by pointer (prep pins them, so an
// equal address is never a later relation's). A plan that reads no table
// is always current. It allocates nothing.
func (s Snapshot) Current(prep *sqlish.Prepared) bool {
	for _, d := range prep.Deps() {
		if s.rels[d.Name] != d.Rel || s.stats[d.Name] != d.Stats {
			return false
		}
	}
	return true
}

// Names returns the sorted table names in the snapshot.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.rels))
	for k := range s.rels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered relations.
func (s Snapshot) Len() int { return len(s.rels) }
