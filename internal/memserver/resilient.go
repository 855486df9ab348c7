package memserver

import (
	"errors"
	"fmt"
	"time"

	"oasis/internal/network"
	"oasis/internal/telemetry"
)

// This file adds the resilience layer the paper punts on ("a failed
// memory server strands its partial VMs"): a client that survives
// dropped connections, server restarts and transient stalls by
// reconnecting with exponential backoff + jitter, re-issuing calls, and
// tripping a circuit breaker when the server is genuinely gone so
// callers can degrade (memtap reports the VM degraded; the agent
// force-promotes it home from the last good image, §4.4.4). The breaker
// is the ClientPool's, one per server however many lanes carry its
// calls; the methods below run under the pool's mutex or take it.

// ErrCircuitOpen is returned while the breaker is open: the server has
// failed repeatedly and calls fail fast instead of queueing behind
// doomed reconnect attempts. Callers treat it as "degrade now".
var ErrCircuitOpen = errors.New("memserver: circuit open (memory server unavailable)")

// BreakerState is a pool's (or, aggregated, a fabric's) circuit-breaker
// state.
type BreakerState int32

// Breaker states: Closed passes traffic; Open fails fast; HalfOpen lets
// probes through after the cooldown to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for logs and stats.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ResilientConfig tunes retry, backoff and breaker behaviour. Zero
// values take defaults.
type ResilientConfig struct {
	// MaxRetries is the attempt budget per idempotent read op.
	MaxRetries int
	// MutatingRetries is the attempt budget per mutating op (all are
	// idempotent by design, see the package comment; the budget is
	// bounded anyway so upload paths fail over to degradation quickly).
	MutatingRetries int
	// BaseBackoff/MaxBackoff bound the exponential reconnect backoff;
	// each retry waits base·2^attempt plus up to 50% seeded jitter,
	// capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the jitter PRNG, keeping fault tests
	// deterministic.
	JitterSeed uint64
	// BreakerThreshold is the number of consecutive failed attempts
	// that trips the breaker open.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a
	// half-open probe is allowed.
	BreakerCooldown time.Duration
	// DialTimeout bounds each (re)connect attempt (<= 0:
	// DefaultDialTimeout); OpTimeout bounds each round trip (<= 0:
	// DefaultOpTimeout).
	DialTimeout time.Duration
	OpTimeout   time.Duration
	// Network carries every (re)connect (nil: network.TCP): TLS, and in
	// tests the fault injector, wrap it. Its Dial runs outside every
	// lock and may block until DialTimeout.
	Network network.Network
	// Sleep replaces time.Sleep in backoff waits (virtual time in
	// tests). Nil uses time.Sleep.
	Sleep func(time.Duration)
	// OnStateChange, when set, is called (outside locks) on every
	// breaker transition. Memtap uses it to flag the VM degraded.
	OnStateChange func(from, to BreakerState)
	// Name labels this client's telemetry series (the `client` label on
	// the oasis_client_* metrics), separating e.g. a memtap fault path
	// from an agent upload path in one scrape. Empty means "default";
	// clients sharing a name aggregate into the same counters.
	Name string
	// Registry receives the client's live metrics (retries, reconnects,
	// failures, breaker opens/state, backoff time). Nil uses
	// telemetry.Default, which is what -metrics-addr serves.
	Registry *telemetry.Registry
}

func (c *ResilientConfig) withDefaults() {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.MutatingRetries <= 0 {
		c.MutatingRetries = 2
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = DefaultOpTimeout
	}
	if c.Network == nil {
		c.Network = network.TCP
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
}

// AggregateBreaker folds the breakers of a fabric's backends, each a
// different server, into the fabric's: Open only when EVERY backend is
// open (one healthy backend still serves), HalfOpen when none is closed
// but a probe is in flight somewhere, Closed otherwise.
func AggregateBreaker(members []BreakerState) BreakerState {
	agg := BreakerOpen
	for _, s := range members {
		switch s {
		case BreakerClosed:
			return BreakerClosed
		case BreakerHalfOpen:
			agg = BreakerHalfOpen
		}
	}
	return agg
}

// ResilienceStats snapshots the retry layer's counters for the
// metrics/degradation reporting layer.
type ResilienceStats struct {
	Retries      int64 // operation attempts beyond the first
	Reconnects   int64 // successful re-dials after a poisoned connection
	Failures     int64 // attempts that ended in a transport error
	BreakerOpens int64 // closed/half-open → open transitions
	State        BreakerState
}

// Add sums a fabric backend's counters into s. State is left alone: a
// fabric's breaker is an AggregateBreaker, not a sum.
func (s *ResilienceStats) Add(member ResilienceStats) {
	s.Retries += member.Retries
	s.Reconnects += member.Reconnects
	s.Failures += member.Failures
	s.BreakerOpens += member.BreakerOpens
}

// setStateLocked transitions the breaker, returning a callback to invoke
// after unlocking (or nil). The state gauge moves under p.mu, so it
// always reads what BreakerState reads.
func (p *ClientPool) setStateLocked(s BreakerState) func() {
	if p.stats.State == s {
		return nil
	}
	from := p.stats.State
	p.stats.State = s
	p.tel.state.Set(float64(s))
	if s == BreakerOpen {
		p.openedAt = time.Now()
		p.stats.BreakerOpens++
		p.tel.opens.Inc()
	}
	if cb := p.cfg.OnStateChange; cb != nil {
		return func() { cb(from, s) }
	}
	return nil
}

// allow checks the breaker before an attempt at op: open and still
// cooling down → fail fast; open past the cooldown → half-open probe.
func (p *ClientPool) allow(op string) error {
	p.mu.Lock()
	var cb func()
	var err error
	if p.stats.State == BreakerOpen {
		if time.Since(p.openedAt) >= p.cfg.BreakerCooldown {
			cb = p.setStateLocked(BreakerHalfOpen)
		} else {
			err = fmt.Errorf("memserver: %s: %w", op, ErrCircuitOpen)
		}
	}
	p.mu.Unlock()
	if cb != nil {
		cb()
	}
	return err
}

// onSuccess resets the failure accounting and closes the breaker.
func (p *ClientPool) onSuccess() {
	p.mu.Lock()
	p.fails = 0
	cb := p.setStateLocked(BreakerClosed)
	p.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// onFailure counts a failed attempt and trips the breaker when the
// consecutive-failure threshold is reached (immediately, when a
// half-open probe fails).
func (p *ClientPool) onFailure() {
	p.mu.Lock()
	p.fails++
	p.stats.Failures++
	p.tel.failures.Inc()
	var cb func()
	if p.stats.State == BreakerHalfOpen || p.fails >= p.cfg.BreakerThreshold {
		cb = p.setStateLocked(BreakerOpen)
	}
	p.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// count bumps one of the pool's counters and its series.
func (p *ClientPool) count(n *int64, c *telemetry.Counter) {
	p.mu.Lock()
	*n++
	p.mu.Unlock()
	c.Inc()
}

// backoff sleeps base·2^attempt with up to 50% seeded jitter, capped at
// MaxBackoff.
func (p *ClientPool) backoff(attempt int) {
	d := p.cfg.BaseBackoff << uint(attempt)
	if d > p.cfg.MaxBackoff || d <= 0 {
		d = p.cfg.MaxBackoff
	}
	p.mu.Lock()
	frac := p.jitter.Float64()
	p.mu.Unlock()
	d += time.Duration(frac * 0.5 * float64(d))
	p.tel.backoff.Add(d.Seconds())
	p.cfg.Sleep(d)
}
