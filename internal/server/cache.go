package server

import (
	"container/list"
	"sync"
)

// CacheKey identifies one cached plan by what the statement is, never by
// the state of the catalog: the statement's shape key
// (sqlish.Statement.ShapeKey: the normalized text — formatting
// differences collapse — with the literals of WHERE and ON comparisons
// lifted into hidden parameter slots, plus each lifted literal's kind, so
// statements that differ only in such literals share one plan; EXPLAIN
// statements and GET /explain key on their literal normalized text) and
// the planner-flags fingerprint (flags change batch size, the optimizer's
// rewrites and pruning, so plans under different flags must not mix).
type CacheKey struct {
	Shape string
	Flags string
}

// PlanCache is a thread-safe LRU cache of immutable plans — one per
// CacheKey, handed to any number of concurrent executions — with
// table-scoped validity: a plan is served only while the caller's valid
// function accepts it. The server accepts a sqlish.Prepared whose
// recorded catalog entries are pointer-identical in the snapshot the
// execution runs against (Snapshot.Current); the distsql coordinator
// checks its stubs and partition columns the same way. A catalog change
// purges the plans that depend on the changed table (Invalidate), at
// once, so nothing pins a dropped relation that nobody can reach.
type PlanCache[P any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheSlot[P]
	byKey map[CacheKey]*list.Element

	hits        uint64
	misses      uint64
	evictions   uint64
	invalidated uint64
	plans       uint64
}

type cacheSlot[P any] struct {
	key  CacheKey
	plan P
}

// DefaultCacheSize is the prepared-plan cache capacity when Config leaves
// it zero.
const DefaultCacheSize = 256

// NewPlanCache returns an LRU plan cache holding up to capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewPlanCache[P any](capacity int) *PlanCache[P] {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &PlanCache[P]{
		cap:   capacity,
		order: list.New(),
		byKey: map[CacheKey]*list.Element{},
	}
}

// Get returns the cached plan for key if valid accepts it, marking it
// most recently used. A plan valid rejects is removed (counted as
// invalidated) and the lookup is a miss.
func (c *PlanCache[P]) Get(key CacheKey, valid func(P) bool) (plan P, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if found {
		if plan = el.Value.(*cacheSlot[P]).plan; valid(plan) {
			c.hits++
			c.order.MoveToFront(el)
			return plan, true
		}
		c.remove(el)
		c.invalidated++
	}
	c.misses++
	var none P
	return none, false
}

// Put counts one planning and caches the plan under key, replacing the
// key's previous plan and evicting the least recently used entry beyond
// capacity. valid must check the caller's CURRENT state, not the state
// the plan was built from; it runs under the cache lock, so a plan whose
// table changed while it was being built cannot slip in behind the purge
// that change ran. Concurrent misses on one key may each plan and Put
// (last insert wins): redundant work, the plans being immutable.
func (c *PlanCache[P]) Put(key CacheKey, plan P, valid func(P) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans++
	if !valid(plan) {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheSlot[P]).plan = plan
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheSlot[P]{key: key, plan: plan})
	for c.order.Len() > c.cap {
		c.remove(c.order.Back())
		c.evictions++
	}
}

// Invalidate removes every plan stale reports true for. They are not LRU
// evictions.
func (c *PlanCache[P]) Invalidate(stale func(P) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if stale(el.Value.(*cacheSlot[P]).plan) {
			c.remove(el)
			c.invalidated++
		}
		el = next
	}
}

// remove unlinks one entry (caller holds the lock).
func (c *PlanCache[P]) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.byKey, el.Value.(*cacheSlot[P]).key)
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
	// Invalidated counts plans removed because a table they depend on
	// changed (re-registered, dropped, re-analyzed, re-staged).
	Invalidated uint64 `json:"invalidated"`
	// Plans counts how many times a statement was actually planned (a
	// prepared statement executed N times contributes 1 here and N-1 to
	// Hits, which is the acceptance check for "plan once, execute many").
	Plans uint64 `json:"plans"`
}

// Stats returns the current cache counters.
func (c *PlanCache[P]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:        c.order.Len(),
		Capacity:    c.cap,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Invalidated: c.invalidated,
		Plans:       c.plans,
	}
}
