package memserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"oasis/internal/network"
	"oasis/internal/rng"
	"oasis/internal/telemetry"
)

// This file adds the resilience layer the paper punts on ("a failed
// memory server strands its partial VMs"): a lane that survives dropped
// connections, server restarts and transient stalls by reconnecting with
// exponential backoff + jitter, re-issuing calls, and tripping a circuit
// breaker when the server is genuinely gone so callers can degrade
// (memtap reports the VM degraded; the agent force-promotes it home from
// the last good image, §4.4.4). A lane is mechanism only: it re-issues
// whatever call it is handed, and the call says which retry budget it
// gets (see call.mutating). ClientPool is the exported face of one or
// more lanes.

// ErrCircuitOpen is returned while the breaker is open: the server has
// failed repeatedly and calls fail fast instead of queueing behind
// doomed reconnect attempts. Callers treat it as "degrade now".
var ErrCircuitOpen = errors.New("memserver: circuit open (memory server unavailable)")

// BreakerState is a lane's (or, aggregated, a pool's) circuit-breaker state.
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

// AggregateBreaker folds the breakers of a group's members — a pool's
// lanes, a fabric's backends — into the group's: Open only when EVERY
// member is open (one healthy member still serves), HalfOpen when none is
// closed but a probe is in flight somewhere, Closed otherwise.
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

// Add sums a group member's counters into s. State is left alone: a
// group's breaker is an AggregateBreaker, not a sum.
func (s *ResilienceStats) Add(member ResilienceStats) {
	s.Retries += member.Retries
	s.Reconnects += member.Reconnects
	s.Failures += member.Failures
	s.BreakerOpens += member.BreakerOpens
}

// lane is one self-healing connection: the exchanger that owns a
// socket to one server and re-issues a call across reconnects until it
// succeeds, its retry budget runs out, or the breaker says the server is
// gone. It is safe for concurrent use; calls serialise on the socket,
// since the protocol is strictly request/response per connection.
type lane struct {
	addr   string
	secret []byte
	cfg    ResilientConfig
	tel    *resTel

	// callMu serialises attempts, each a (re)dial if needed plus one
	// round trip, and guards the connection state below. Holding it
	// across both means at most one dial is ever in flight, and no
	// caller queues on a socket the caller ahead of it is about to drop
	// — one transport error is one failure to the breaker, however many
	// calls were waiting.
	callMu   sync.Mutex
	conn     net.Conn // nil when disconnected
	everConn bool
	// Reusable framing state (see client.go). Request frames are laid
	// out as segments in bufs (bufs[0] is always the 5-byte header
	// rebuilt per call in hdrArr); small frames coalesce into frame and
	// go out in one Write, large ones as vectored buffers. opArr holds
	// the fixed-size request prefix of the current call, so the upload
	// and GetPage hot paths allocate nothing per call.
	hdrArr [5]byte
	opArr  [24]byte
	frame  []byte
	bufs   net.Buffers
	// upMAC signs upload payloads with the session MAC the current
	// socket's handshake derived (see proto.go).
	upMAC *sessionGCM

	// mu guards the state below and is never held across a dial, a
	// round trip or a sleep, so the breaker can always be read promptly.
	mu       sync.Mutex
	fails    int       // consecutive failed attempts
	openedAt time.Time // when the breaker last opened
	jitter   *rng.Rand
	stats    ResilienceStats // State is the breaker
}

// newLane builds a lane to addr without connecting; the first call dials.
func newLane(addr string, secret []byte, cfg ResilientConfig) *lane {
	cfg.withDefaults()
	return &lane{
		addr:   addr,
		secret: secret,
		cfg:    cfg,
		tel:    newResTel(cfg.Registry, cfg.Name),
		jitter: rng.New(cfg.JitterSeed ^ 0x6f617369),
	}
}

// close shuts the socket down once the attempt in flight, if any, has
// finished. The lane may still be used afterwards; the next call
// reconnects.
func (l *lane) close() error {
	l.callMu.Lock()
	defer l.callMu.Unlock()
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn = nil
	return err
}

func (l *lane) breakerState() BreakerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.State
}

func (l *lane) resilienceStats() ResilienceStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// attempt makes one try at c: over the current socket if there is one,
// else over a fresh one. A call with no request type (DialPool's eager
// dial) is done once connected. A black-holed server can park the dial
// for DialTimeout; only callMu is held, so the breaker stays readable.
func (l *lane) attempt(c call) ([]byte, error) {
	l.callMu.Lock()
	defer l.callMu.Unlock()
	if l.conn == nil {
		if err := l.dial(); err != nil {
			return nil, err
		}
		if l.everConn {
			l.mu.Lock()
			l.stats.Reconnects++
			l.mu.Unlock()
			l.tel.reconnects.Inc()
		}
		l.everConn = true
	}
	if c.req == 0 {
		return nil, nil
	}
	return l.roundTrip(c)
}

// setStateLocked transitions the breaker, returning a callback to invoke
// after unlocking (or nil).
func (l *lane) setStateLocked(s BreakerState) func() {
	if l.stats.State == s {
		return nil
	}
	from := l.stats.State
	l.stats.State = s
	l.tel.state.Set(float64(s))
	if s == BreakerOpen {
		l.openedAt = time.Now()
		l.stats.BreakerOpens++
		l.tel.opens.Inc()
	}
	if cb := l.cfg.OnStateChange; cb != nil {
		return func() { cb(from, s) }
	}
	return nil
}

// allow checks the breaker before an attempt: open and still cooling
// down → fail fast; open past the cooldown → half-open probe.
func (l *lane) allow() error {
	l.mu.Lock()
	var cb func()
	err := error(nil)
	if l.stats.State == BreakerOpen {
		if time.Since(l.openedAt) >= l.cfg.BreakerCooldown {
			cb = l.setStateLocked(BreakerHalfOpen)
		} else {
			err = ErrCircuitOpen
		}
	}
	l.mu.Unlock()
	if cb != nil {
		cb()
	}
	return err
}

// onSuccess resets the failure accounting and closes the breaker.
func (l *lane) onSuccess() {
	l.mu.Lock()
	l.fails = 0
	cb := l.setStateLocked(BreakerClosed)
	l.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// onFailure counts a failed attempt and trips the breaker when the
// consecutive-failure threshold is reached (immediately, when a
// half-open probe fails).
func (l *lane) onFailure() {
	l.mu.Lock()
	l.fails++
	l.stats.Failures++
	l.tel.failures.Inc()
	var cb func()
	if l.stats.State == BreakerHalfOpen || l.fails >= l.cfg.BreakerThreshold {
		cb = l.setStateLocked(BreakerOpen)
	}
	l.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// backoff sleeps base·2^attempt with up to 50% seeded jitter, capped at
// MaxBackoff.
func (l *lane) backoff(attempt int) {
	d := l.cfg.BaseBackoff << uint(attempt)
	if d > l.cfg.MaxBackoff || d <= 0 {
		d = l.cfg.MaxBackoff
	}
	l.mu.Lock()
	frac := l.jitter.Float64()
	l.mu.Unlock()
	d += time.Duration(frac * 0.5 * float64(d))
	l.tel.backoff.Add(d.Seconds())
	l.cfg.Sleep(d)
}

// exchange carries c with retry/reconnect/breaker handling. A remoteError
// reply is a healthy server refusing the request (unknown VM, not
// serving): it is returned as-is without burning retries or tripping the
// breaker.
func (l *lane) exchange(c call) ([]byte, error) {
	attempts := l.cfg.MaxRetries
	if c.mutating {
		attempts = l.cfg.MutatingRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := l.allow(); err != nil {
			return nil, fmt.Errorf("memserver: %s: %w", c.op, err)
		}
		if attempt > 0 {
			l.mu.Lock()
			l.stats.Retries++
			l.mu.Unlock()
			l.tel.retries.Inc()
		}
		reply, err := l.attempt(c)
		if err == nil || IsRemoteError(err) {
			l.onSuccess() // the transport worked, whatever the server said
			return reply, err
		}
		lastErr = err
		l.onFailure()
		if attempt < attempts-1 {
			l.backoff(attempt)
		}
	}
	return nil, fmt.Errorf("memserver: %s failed after %d attempts: %w", c.op, attempts, lastErr)
}
