package memserver

import (
	"fmt"
	"sync"
	"time"

	"oasis/internal/rng"
)

// DefaultPoolSize is the connection count DialPool uses when the config
// leaves Size unset. Four lanes cover the prefetch pipelining the memtap
// issues (a few batches in flight) without holding a socket per vCPU.
const DefaultPoolSize = 4

// PoolConfig configures a ClientPool.
type PoolConfig struct {
	// Size is the number of pooled connections (lanes). Values <= 0 take
	// DefaultPoolSize; 1 is the plain resilient client — one
	// self-healing connection.
	Size int
	// Resilience configures the pool's one retry loop and one circuit
	// breaker, which every lane's attempts feed, and each lane's dial and
	// round trip. OnStateChange fires on that breaker's transitions.
	Resilience ResilientConfig
}

// ClientPool is the resilient client: it fans calls out over N
// connections (lanes) to one memory server behind one retry loop and one
// circuit breaker; with one lane it is simply a connection that retries,
// reconnects and breaks the circuit. The lanes all reach the same server
// over the same network, so they share its fate: the breaker is the
// server's, not a connection's. The wire protocol is strictly
// request/response per connection — that serialization is preserved per
// lane (it is what makes the framing self-synchronizing and retries
// safe) — and parallelism comes from having N lanes. Each operation is
// dispatched to the least-loaded lane, so single-request traffic sticks
// to one warm connection while a pipelined prefetcher spreads its
// batches across all of them.
//
// ClientPool is safe for concurrent use.
type ClientPool struct {
	ops // the protocol operations, written once over exchange

	cfg   ResilientConfig
	lanes []*lane
	tel   *clientTel

	// mu guards dispatch and the breaker. It is never held across a
	// dial, a round trip, a sleep or OnStateChange, so the breaker stays
	// readable while a lane redials a black-holed server.
	mu       sync.Mutex
	inflight []int     // per-lane outstanding ops
	fails    int       // consecutive failed attempts
	openedAt time.Time // when the breaker last opened
	jitter   *rng.Rand
	stats    ResilienceStats // State is the breaker
}

// NewPool builds a pool of cfg.Size lanes to the server at addr without
// connecting; lanes dial on first use.
func NewPool(addr string, secret []byte, cfg PoolConfig) *ClientPool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	cfg.Resilience.withDefaults()
	secret = append([]byte(nil), secret...)
	p := &ClientPool{
		cfg:      cfg.Resilience,
		lanes:    make([]*lane, cfg.Size),
		tel:      newClientTel(cfg.Resilience.Registry, cfg.Resilience.Name),
		inflight: make([]int, cfg.Size),
		jitter:   rng.New(cfg.Resilience.JitterSeed ^ 0x6f617369),
	}
	p.ops = ops{x: p, put: newPutTel(cfg.Resilience.Registry, cfg.Resilience.Name)}
	for i := range p.lanes {
		p.lanes[i] = &lane{addr: addr, secret: secret, cfg: &p.cfg}
	}
	p.tel.size.Set(float64(cfg.Size))
	return p
}

// DialPool returns a pool for the server at addr. The first lane
// connects eagerly, through the same retry, backoff and breaker as any
// call, so a transport fault on the way in (a reset during the
// handshake, a server mid-restart) is ridden out like one a moment
// later would be, while a server that answers and refuses (bad secret,
// refused handshake) still fails the dial on the first attempt. The
// remaining lanes dial lazily as load arrives, and a lane whose socket
// breaks redials on its next attempt.
func DialPool(addr string, secret []byte, cfg PoolConfig) (*ClientPool, error) {
	p := NewPool(addr, secret, cfg)
	if _, err := p.exchange(call{op: "dial"}); err != nil {
		return nil, fmt.Errorf("memserver: pool dial %s: %w", addr, err)
	}
	return p, nil
}

// Size returns the number of lanes.
func (p *ClientPool) Size() int { return len(p.lanes) }

// acquire picks the least-loaded lane.
func (p *ClientPool) acquire() int {
	p.mu.Lock()
	best := 0
	for i, n := range p.inflight {
		if n < p.inflight[best] {
			best = i
		}
	}
	p.inflight[best]++
	p.mu.Unlock()
	p.tel.dispatches.Inc()
	p.tel.inflight.Inc()
	return best
}

func (p *ClientPool) release(lane int) {
	p.mu.Lock()
	p.inflight[lane]--
	p.mu.Unlock()
	p.tel.inflight.Dec()
}

// exchange is the pool's one retry loop: it checks the breaker, hands c
// to the least-loaded lane and re-issues it there across reconnects until
// it succeeds, the budget of its retry class (see call.mutating) runs
// out, or the breaker opens, recording every attempt's outcome on the
// breaker. A call keeps its lane across its attempts. Single-request
// traffic sticks to one warm connection; a pipelined prefetcher or a
// streamed upload issues calls concurrently and they spread across all
// lanes, so they genuinely overlap on the wire. A remoteError reply is a
// healthy server refusing the request (unknown VM, not serving): it is
// returned as-is without burning retries or tripping the breaker.
func (p *ClientPool) exchange(c call) ([]byte, error) {
	attempts := p.cfg.MaxRetries
	if c.mutating {
		attempts = p.cfg.MutatingRetries
	}
	if err := p.allow(c.op); err != nil {
		return nil, err
	}
	i := p.acquire()
	defer p.release(i)
	for attempt := 0; ; attempt++ {
		reply, redialed, err := p.lanes[i].attempt(c)
		if redialed {
			p.count(&p.stats.Reconnects, p.tel.reconnects)
		}
		if err == nil || IsRemoteError(err) {
			p.onSuccess() // the transport worked, whatever the server said
			return reply, err
		}
		p.onFailure()
		if attempt == attempts-1 {
			return nil, fmt.Errorf("memserver: %s failed after %d attempts: %w", c.op, attempts, err)
		}
		p.backoff(attempt)
		if err := p.allow(c.op); err != nil {
			return nil, err
		}
		p.count(&p.stats.Retries, p.tel.retries)
	}
}

// BreakerState returns the pool's breaker state. Memtap's Degraded check
// reads this: a pool is degraded when its server is.
func (p *ClientPool) BreakerState() BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.State
}

// ResilienceStats snapshots the pool's retry and breaker counters.
func (p *ClientPool) ResilienceStats() ResilienceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close shuts every lane's connection down. The pool may still be used
// afterwards; lanes reconnect on demand.
func (p *ClientPool) Close() error {
	var first error
	for _, lane := range p.lanes {
		if err := lane.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
