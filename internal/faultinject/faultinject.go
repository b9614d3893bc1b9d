// Package faultinject is the chaos-testing hook layer: named sites in
// the executor, the server and the wire client call Hit, and tests arm
// faults (a panic, an injected error, a delay) at those sites to prove
// the resilience machinery — panic isolation, structured errors,
// goroutine teardown, gate release — under adversity rather than luck.
//
// Production cost is one atomic load per site visit: until Enable is
// called, Hit returns immediately. Faults are armed with a countdown
// (fire on the k-th visit, optionally repeatedly), which keeps chaos
// runs reproducible from a seed without any randomness in this package.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates what an armed fault does when it fires.
type Kind int

// The fault kinds.
const (
	// KindPanic panics at the site (the resilience layer must convert it
	// into a structured internal error, not a process crash).
	KindPanic Kind = iota
	// KindError makes Hit return an injected error.
	KindError
	// KindDelay makes Hit sleep before returning nil (stressing
	// deadlines and drain paths without failing the operation).
	KindDelay
)

// String renders the kind for test labels.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one armed behavior at a site.
type Fault struct {
	// Kind selects the behavior when the fault fires.
	Kind Kind
	// After skips the first After visits to the site, so faults can be
	// placed mid-stream (0 fires on the first visit).
	After int
	// Repeat keeps the fault armed after it fires; otherwise it fires
	// exactly once.
	Repeat bool
	// Delay is the sleep for KindDelay.
	Delay time.Duration
	// Err overrides the injected error for KindError (a generic
	// "faultinject: injected error at <site>" otherwise).
	Err error
}

// armed is a Fault plus its visit counter.
type armed struct {
	f      Fault
	visits int
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	sites   map[string]*armed
	fired   atomic.Uint64
)

// Enabled reports whether any faults are armed (the fast-path check).
func Enabled() bool { return enabled.Load() }

// Fired reports how many faults have fired since the last Reset.
func Fired() uint64 { return fired.Load() }

// Arm installs a fault at a named site (replacing any previous one) and
// enables the hook layer.
func Arm(site string, f Fault) {
	mu.Lock()
	if sites == nil {
		sites = make(map[string]*armed)
	}
	sites[site] = &armed{f: f}
	mu.Unlock()
	enabled.Store(true)
}

// Reset disarms every site and zeroes the fired counter.
func Reset() {
	mu.Lock()
	sites = nil
	mu.Unlock()
	enabled.Store(false)
	fired.Store(0)
}

// Hit visits a named site: a no-op (after one atomic load) unless a
// fault is armed there and its countdown has elapsed. KindError returns
// the injected error, KindDelay sleeps and returns nil, KindPanic
// panics with a *Panic value carrying the site name.
func Hit(site string) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	a, ok := sites[site]
	if !ok {
		mu.Unlock()
		return nil
	}
	a.visits++
	if a.visits <= a.f.After {
		mu.Unlock()
		return nil
	}
	f := a.f
	if !f.Repeat {
		delete(sites, site)
	}
	mu.Unlock()
	fired.Add(1)
	switch f.Kind {
	case KindPanic:
		panic(&Panic{Site: site})
	case KindDelay:
		time.Sleep(f.Delay)
		return nil
	default:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("faultinject: injected error at %s", site)
	}
}

// Panic is the value an injected panic throws; recovery layers see it
// like any other panic value, and chaos tests can recognize their own
// injections in resulting error messages by the site name.
type Panic struct {
	// Site names where the panic was injected.
	Site string
}

// String renders the injected panic value.
func (p *Panic) String() string { return "faultinject: injected panic at " + p.Site }
