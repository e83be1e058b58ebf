// Package backoff computes retry pauses: one Policy value, one Delay
// function, exponentially growing and jittered, with an injectable
// rand so tests can pin the schedule. No package in the repository
// imports it at present.
package backoff

import (
	"context"
	"math/rand"
	"time"
)

// Policy computes exponentially growing, jittered delays. The zero
// value is usable and equals Default(). A Policy is a value type:
// copy it freely. When Rand is set the Policy must not be shared
// across goroutines (rand.Rand is not concurrency-safe); a nil Rand
// uses the global locked source.
type Policy struct {
	// Base is the delay before the first retry (attempt 0). <= 0
	// means 100ms.
	Base time.Duration
	// Cap bounds the grown delay before jitter. <= 0 means 30s.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier. < 1 means 2.
	Factor float64
	// Jitter is the fraction of each delay that is randomized, in
	// [0, 1]: the returned delay is uniform in
	// [d*(1-Jitter), d]. Negative means 0.5; 0 stays 0 (fully
	// deterministic), which tests rely on.
	Jitter float64
	// Rand, when non-nil, supplies the jitter randomness so tests
	// get a reproducible schedule. Nil uses the global source.
	Rand *rand.Rand
}

// Default is the standard policy: 100ms base, 30s cap, doubling,
// half-jittered.
func Default() Policy {
	return Policy{Base: 100 * time.Millisecond, Cap: 30 * time.Second, Factor: 2, Jitter: 0.5}
}

func (p Policy) base() time.Duration {
	if p.Base <= 0 {
		return 100 * time.Millisecond
	}
	return p.Base
}

func (p Policy) cap() time.Duration {
	if p.Cap <= 0 {
		return 30 * time.Second
	}
	return p.Cap
}

func (p Policy) factor() float64 {
	if p.Factor < 1 {
		return 2
	}
	return p.Factor
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0.5
	case p.Jitter > 1:
		return 1
	}
	return p.Jitter
}

// Delay returns the pause before retry number attempt (counted from
// 0): min(Base*Factor^attempt, Cap), with the top Jitter fraction
// randomized. Negative attempts are treated as 0. The result is
// always in (0, Cap].
func (p Policy) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.base())
	cap := float64(p.cap())
	f := p.factor()
	for i := 0; i < attempt && d < cap; i++ {
		d *= f
	}
	if d > cap {
		d = cap
	}
	if j := p.jitter(); j > 0 {
		u := rand.Float64
		if p.Rand != nil {
			u = p.Rand.Float64
		}
		d = d*(1-j) + u()*d*j
	}
	if d < 1 {
		d = 1 // never a zero sleep: callers use the delay to yield
	}
	return time.Duration(d)
}

// Sleep blocks for Delay(attempt) or until ctx is done, returning
// ctx.Err() in the latter case. It is the standard shape of a retry
// loop pause: `if err := p.Sleep(ctx, n); err != nil { return err }`.
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.Delay(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
