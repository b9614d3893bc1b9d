package server

import (
	"container/list"
	"sync"

	"talign/internal/sqlish"
)

// cacheKey identifies one cached plan. Four components make reuse sound:
// the statement's shape key (sqlish.Statement.ShapeKey: the normalized
// text — formatting differences collapse — with the literals of WHERE and
// ON comparisons lifted into hidden parameter slots, plus each lifted
// literal's kind, so statements that differ only in such literals share
// one plan; EXPLAIN statements and GET /explain key on their literal
// normalized text), the catalog version the plan was built against
// (schema or data changes invalidate), the statistics version (ANALYZE
// changes cost decisions, so plans built against stale statistics must
// not be reused), and the planner-flags fingerprint (flags change method
// choice and exchange placement, so plans under different flags must not
// mix).
type cacheKey struct {
	sql     string
	version uint64
	stats   uint64
	flags   string
}

// PlanCache is a thread-safe LRU cache of prepared statements. Entries are
// immutable sqlish.Prepared plans, so a cached entry can be handed to any
// number of concurrent executions; eviction only drops the cache's
// reference. A catalog change does not purge entries eagerly — stale
// versions simply stop being requested and age out of the LRU.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheSlot
	byKey map[cacheKey]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
	plans     uint64
}

type cacheSlot struct {
	key  cacheKey
	prep *sqlish.Prepared
}

// DefaultCacheSize is the prepared-plan cache capacity when Config leaves
// it zero.
const DefaultCacheSize = 256

// NewPlanCache returns an LRU plan cache holding up to capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &PlanCache{
		cap:   capacity,
		order: list.New(),
		byKey: map[cacheKey]*list.Element{},
	}
}

// get returns the cached plan for key, marking it most recently used.
func (c *PlanCache) get(key cacheKey) (*sqlish.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheSlot).prep, true
}

// put inserts (or refreshes) a freshly prepared plan, evicting the least
// recently used entry beyond capacity. Concurrent misses on the same key
// may each prepare and put (last insert wins); plans are immutable so the
// duplicates are merely redundant work, and the Plans counter counts
// every one.
func (c *PlanCache) put(key cacheKey, prep *sqlish.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans++
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheSlot).prep = prep
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheSlot{key: key, prep: prep})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheSlot).key)
		c.evictions++
	}
}

// dropOlder removes every plan built against a catalog version before
// version. They are not LRU evictions.
func (c *PlanCache) dropOlder(version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		slot, next := el.Value.(*cacheSlot), el.Next()
		if slot.key.version < version {
			c.order.Remove(el)
			delete(c.byKey, slot.key)
		}
		el = next
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Size and Capacity are the current and maximum entry counts.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits and Misses count lookups; Evictions counts LRU drops.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Plans counts how many times a statement was actually planned (a
	// prepared statement executed N times contributes 1 here and N-1 to
	// Hits, which is the acceptance check for "plan once, execute many").
	Plans uint64 `json:"plans"`
}

// Stats returns the current cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.order.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Plans:     c.plans,
	}
}
