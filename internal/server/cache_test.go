package server

import (
	"context"
	"testing"
	"time"

	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/sqltest"
	"talign/internal/value"
)

func demoServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.Catalog().Register("r", relation.NewBuilder("n string").
		Row(0, 7, "Ann").
		Row(1, 5, "Joe").
		Row(7, 11, "Ann").
		MustBuild())
	s.Catalog().Register("p", relation.NewBuilder("a int", "mn int", "mx int").
		Row(0, 5, 50, 1, 2).
		Row(0, 5, 40, 3, 7).
		Row(0, 12, 30, 8, 12).
		Row(9, 12, 50, 1, 2).
		Row(9, 12, 40, 3, 7).
		MustBuild())
	return s
}

// TestPreparedPlansExactlyOnce is the acceptance check: a prepared
// statement executed twice plans exactly once.
func TestPreparedPlansExactlyOnce(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	if _, err := s.Prepare("s1", "q", "SELECT a FROM p WHERE a >= $1"); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for i := 0; i < 2; i++ {
		res, err := sqltest.Run(t.Context(), s, "s1", "q", "", []value.Value{value.NewInt(40)}, 0)
		if err != nil {
			t.Fatalf("Query #%d: %v", i+1, err)
		}
		if res.Rel.Len() != 4 {
			t.Fatalf("Query #%d: %d rows, want 4", i+1, res.Rel.Len())
		}
		if !res.CacheHit {
			t.Fatalf("Query #%d missed the plan cache", i+1)
		}
	}
	st := s.CacheStats()
	if st.Plans != 1 {
		t.Fatalf("planned %d times, want exactly 1 (hits=%d misses=%d)", st.Plans, st.Hits, st.Misses)
	}
	if st.Hits != 2 {
		t.Fatalf("cache hits = %d, want 2", st.Hits)
	}
}

// TestCacheInvalidationOnCatalogChange: re-registering a relation
// invalidates the plans over it, so the next execution re-plans against
// fresh data instead of serving the stale snapshot.
func TestCacheInvalidationOnCatalogChange(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	if _, err := s.Prepare("s1", "q", "SELECT n FROM r"); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	res, err := sqltest.Run(t.Context(), s, "s1", "q", "", nil, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Rel.Len() != 3 {
		t.Fatalf("got %d rows, want 3", res.Rel.Len())
	}

	v := s.Catalog().Version()
	s.Catalog().Register("r", relation.NewBuilder("n string").Row(0, 2, "Zoe").MustBuild())
	if got := s.Catalog().Version(); got != v+1 {
		t.Fatalf("version = %d, want %d", got, v+1)
	}

	before := s.CacheStats().Plans
	res, err = sqltest.Run(t.Context(), s, "s1", "q", "", nil, 0)
	if err != nil {
		t.Fatalf("Query after catalog change: %v", err)
	}
	if res.CacheHit {
		t.Fatalf("stale plan served from cache after catalog change")
	}
	if res.Rel.Len() != 1 || res.Rel.Tuples[0].Vals[0].Str() != "Zoe" {
		t.Fatalf("stale data after catalog change:\n%s", res.Rel)
	}
	if got := s.CacheStats().Plans; got != before+1 {
		t.Fatalf("planned %d times after change, want %d", got, before+1)
	}

	// The same key now hits again.
	res, err = sqltest.Run(t.Context(), s, "s1", "q", "", nil, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.CacheHit {
		t.Fatalf("re-planned entry not cached")
	}
}

// TestDropPurgesDependentPlans: a cached plan pins the relations it was
// planned over, so a worker that stages and unstages a shard per query
// must not keep a cache's worth of dead shards alive — dropping (or
// replacing) a table purges exactly the plans over it, at once, and they
// are not LRU evictions. Plans over other tables stay and keep hitting.
func TestDropPurgesDependentPlans(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	query := func(q string) sqltest.Result {
		t.Helper()
		res := sqltest.MustRun(t, s, q)
		return res
	}
	query("SELECT n FROM r")
	for i := 0; i < 5; i++ {
		s.Catalog().Register("tmp", relation.NewBuilder("v int").Row(0, 2, int64(i)).MustBuild())
		query("SELECT v FROM tmp")
		query("SELECT v, n FROM tmp, r")
		if !query("SELECT n FROM r").CacheHit {
			t.Fatalf("round %d: staging tmp cost the plan over r", i)
		}
		if !s.Catalog().Drop("tmp") {
			t.Fatalf("round %d: Drop reported no table", i)
		}
		want := CacheStats{Size: 1, Invalidated: uint64(2 * (i + 1)), Plans: uint64(1 + 2*(i+1))}
		if st := s.CacheStats(); st.Size != want.Size || st.Evictions != 0 || st.Invalidated != want.Invalidated || st.Plans != want.Plans {
			t.Fatalf("round %d: stats = %+v, want size %d, no evictions, %d invalidated, %d plans", i, st, want.Size, want.Invalidated, want.Plans)
		}
	}
	if s.Catalog().Drop("tmp") {
		t.Fatal("Drop of an absent table reported a drop")
	}
	// Replacing a table under its name purges like dropping it.
	s.Catalog().Register("r", relation.NewBuilder("n string").Row(0, 2, "Zoe").MustBuild())
	if st := s.CacheStats(); st.Size != 0 {
		t.Fatalf("after re-registering r: stats = %+v, want an empty cache", st)
	}
}

// TestCacheNormalization: formatting variants of one statement share a
// cache entry.
func TestCacheNormalization(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	if _, err := sqltest.Run(t.Context(), s, "", "", "SELECT n FROM r WHERE n = 'Ann'", nil, 0); err != nil {
		t.Fatalf("Query: %v", err)
	}
	res := sqltest.MustRun(t, s, "select   N from R where n='Ann'")
	if !res.CacheHit {
		t.Fatalf("formatting variant missed the cache")
	}
	if st := s.CacheStats(); st.Plans != 1 {
		t.Fatalf("planned %d times, want 1", st.Plans)
	}
}

// TestCacheFlagsKeying: the same SQL under different planner flags must
// not share plans.
func TestCacheFlagsKeying(t *testing.T) {
	f1 := plan.DefaultFlags()
	f2 := plan.DefaultFlags()
	f2.BatchSize = 2
	if f1.Fingerprint() == f2.Fingerprint() {
		t.Fatalf("distinct flags share a fingerprint %q", f1.Fingerprint())
	}
	c := NewPlanCache[*sqlish.Prepared](8)
	cat := sqlish.MapCatalog{}
	cat.Register("r", relation.NewBuilder("n string").Row(0, 1, "x").MustBuild())
	always := func(*sqlish.Prepared) bool { return true }
	for _, f := range []plan.Flags{f1, f2} {
		flags := f
		key := CacheKey{Shape: "select n from r", Flags: flags.Fingerprint()}
		if _, hit := c.Get(key, always); hit {
			t.Fatalf("flags %q wrongly shared a plan", flags.Fingerprint())
		}
		prep, err := sqlish.Prepare("select n from r", cat, flags)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		c.Put(key, prep, always)
	}
	if st := c.Stats(); st.Plans != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 2 plans, 2 entries", st)
	}
}

// TestCacheValidity pins the cache's own contract: a plan the lookup's
// validator rejects is removed and counted as invalidated, not served; a
// plan already stale at Put is counted as planned but never inserted; an
// Invalidate removes exactly what it matches.
func TestCacheValidity(t *testing.T) {
	c := NewPlanCache[int](4)
	yes, no := func(int) bool { return true }, func(int) bool { return false }
	k := func(s string) CacheKey { return CacheKey{Shape: s} }
	c.Put(k("a"), 1, yes)
	c.Put(k("b"), 2, yes)
	c.Put(k("c"), 3, no)
	if st := c.Stats(); st.Size != 2 || st.Plans != 3 {
		t.Fatalf("after puts: %+v, want size 2, plans 3", st)
	}
	if _, hit := c.Get(k("a"), no); hit {
		t.Fatal("a rejected plan was served")
	}
	if _, hit := c.Get(k("a"), yes); hit {
		t.Fatal("a rejected plan stayed cached")
	}
	c.Invalidate(func(p int) bool { return p == 2 })
	if st := c.Stats(); st.Size != 0 || st.Invalidated != 2 || st.Evictions != 0 || st.Misses != 2 {
		t.Fatalf("after invalidation: %+v, want empty, 2 invalidated, 0 evictions, 2 misses", st)
	}
}

// TestCacheLRUEviction: the least recently used entry is evicted at
// capacity.
func TestCacheLRUEviction(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags(), CacheSize: 2})
	queries := []string{
		"SELECT n FROM r",
		"SELECT a FROM p",
		"SELECT mn FROM p",
	}
	for _, q := range queries {
		if _, err := sqltest.Run(t.Context(), s, "", "", q, nil, 0); err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
	}
	st := s.CacheStats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2, evictions 1", st)
	}
	// queries[0] was evicted; queries[2] is still cached.
	res := sqltest.MustRun(t, s, queries[2])
	if !res.CacheHit {
		t.Fatalf("most recent entry evicted")
	}
	res = sqltest.MustRun(t, s, queries[0])
	if res.CacheHit {
		t.Fatalf("oldest entry survived eviction")
	}
}

func TestGate(t *testing.T) {
	bg := context.Background()
	t.Run("fifo", func(t *testing.T) {
		g := NewGate(2)
		for i := 0; i < 2; i++ {
			if err := g.AcquireCtx(bg); err != nil {
				t.Fatalf("AcquireCtx #%d: %v", i, err)
			}
		}
		if st := g.Stats(); st.InUse != 2 || st.Capacity != 2 {
			t.Fatalf("stats = %+v", st)
		}

		// Waiters are admitted in arrival order, one per released unit.
		queue := func() chan struct{} {
			ch := make(chan struct{})
			n := g.Stats().Waiting
			go func() {
				if err := g.AcquireCtx(bg); err != nil {
					t.Errorf("queued AcquireCtx: %v", err)
				}
				close(ch)
			}()
			for g.Stats().Waiting == n {
				time.Sleep(time.Millisecond)
			}
			return ch
		}
		first, second := queue(), queue()
		g.Release()
		<-first
		select {
		case <-second:
			t.Fatalf("second waiter admitted with one unit released")
		case <-time.After(20 * time.Millisecond):
		}
		if st := g.Stats(); st.InUse != 2 || st.Waiting != 1 {
			t.Fatalf("stats after one release = %+v", st)
		}
		g.Release()
		<-second
		g.Release()
		g.Release()
		if st := g.Stats(); st.InUse != 0 || st.Waiting != 0 {
			t.Fatalf("gate not drained: %+v", st)
		}
	})
	t.Run("unlimited", func(t *testing.T) {
		// An unlimited gate claims nothing.
		u := NewGate(0)
		if err := u.AcquireCtx(bg); err != nil {
			t.Fatalf("unlimited AcquireCtx: %v", err)
		}
		if st := u.Stats(); st.InUse != 0 {
			t.Fatalf("unlimited gate counted a claim: %+v", st)
		}
		u.Release()
	})
}

// TestPlanCacheHitAllocatesNothing: resolving a warm statement — the key,
// the lookup and the validation of every table the plan reads against the
// current snapshot — builds no string and boxes nothing.
func TestPlanCacheHitAllocatesNothing(t *testing.T) {
	s := demoServer(t, Config{Flags: plan.DefaultFlags()})
	s.AnalyzeAll()
	st, err := sqlish.ParseLifted("SELECT n, a FROM r, p WHERE a >= 40")
	if err != nil {
		t.Fatal(err)
	}
	if prep, _, err := s.plan(st, 0); err != nil || len(prep.Deps()) != 2 {
		t.Fatalf("plan: %v, deps %v", err, prep.Deps())
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, hit, err := s.plan(st, 0); err != nil || !hit {
			t.Fatalf("warm plan: hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a plan-cache hit on a 2-table shape costs %.0f mallocs, want 0", allocs)
	}
}
