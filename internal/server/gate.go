package server

import (
	"context"
	"sync"
)

// Gate is the admission controller: a FIFO counting semaphore bounding
// the number of in-flight queries. Every execution claims one unit from
// admission until its result is closed, so a burst of queries queues
// instead of oversubscribing the machine.
//
// Admission is strictly first-come-first-served: a released unit goes to
// the longest waiter, never to a later arrival.
type Gate struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	waiters  []chan struct{} // queued acquisitions; each closes on admission
}

// NewGate returns a gate admitting up to capacity in-flight queries;
// capacity <= 0 means unlimited.
func NewGate(capacity int) *Gate {
	return &Gate{capacity: capacity}
}

// AcquireCtx blocks until a unit is free and claims it; every nil return
// must be paired with one Release. A caller whose context is cancelled
// while queued abandons its place in line (later waiters move up) and
// gets the context's error back with nothing claimed. Admission that
// raced with the cancellation is rolled back, so the accounting stays
// exact either way.
func (g *Gate) AcquireCtx(ctx context.Context) error {
	if g.capacity <= 0 {
		return ctx.Err() // unlimited: nothing to claim
	}
	g.mu.Lock()
	if len(g.waiters) == 0 && g.inUse < g.capacity {
		g.inUse++
		g.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	g.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
	}
	// Cancelled while queued: leave the line — unless admission raced the
	// cancellation, in which case the claim is returned through Release
	// (which also lets the next waiter in).
	g.mu.Lock()
	for i, q := range g.waiters {
		if q == ch {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			g.mu.Unlock()
			return ctx.Err()
		}
	}
	g.mu.Unlock()
	g.Release()
	return ctx.Err()
}

// Release returns a unit claimed by AcquireCtx, handing it straight to the
// head of the queue when there is one.
func (g *Gate) Release() {
	if g.capacity <= 0 {
		return
	}
	g.mu.Lock()
	if len(g.waiters) > 0 {
		close(g.waiters[0])
		g.waiters = g.waiters[1:]
	} else {
		g.inUse--
	}
	g.mu.Unlock()
}

// GateStats is a point-in-time view of the gate.
type GateStats struct {
	// Capacity is the admission budget (0 = unlimited); InUse the
	// in-flight queries; Waiting the queued acquisitions.
	Capacity int `json:"capacity"`
	InUse    int `json:"in_use"`
	Waiting  int `json:"waiting"`
}

// Stats returns the current gate counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{Capacity: g.capacity, InUse: g.inUse, Waiting: len(g.waiters)}
}
