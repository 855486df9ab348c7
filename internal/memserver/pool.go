package memserver

import (
	"fmt"
	"sync"
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
	// Resilience configures every lane. Each lane has its own connection,
	// retry budget, backoff and circuit breaker, so one wedged connection
	// cannot poison its siblings. The JitterSeed is perturbed per lane to
	// de-correlate backoff across the pool, and OnStateChange (if set) is
	// lifted to the pool level: it fires on transitions of the AGGREGATE
	// breaker state (see ClientPool.BreakerState), not per lane, because
	// that is the signal callers act on (memtap's degraded flag).
	Resilience ResilientConfig
}

// ClientPool is the resilient client: it fans calls out over N
// self-healing connections (lanes) to one memory server; with one lane it
// is simply a connection that retries, reconnects and breaks the
// circuit. The wire protocol is strictly request/response per
// connection — that serialization is preserved per lane (it is what makes
// the framing self-synchronizing and retries safe) — and parallelism
// comes from having N independent lanes. Each operation is dispatched to
// the least-loaded lane, so single-request traffic sticks to one warm
// connection while a pipelined prefetcher spreads its batches across all
// of them.
//
// ClientPool is safe for concurrent use.
type ClientPool struct {
	ops // the protocol operations, written once over exchange

	lanes []*lane

	mu        sync.Mutex
	inflight  []int          // per-lane outstanding ops
	laneState []BreakerState // per-lane breaker, tracked via OnStateChange
	aggState  BreakerState   // AggregateBreaker(laneState)

	onStateChange func(from, to BreakerState)
	tel           *poolTel
}

// NewPool builds a pool of cfg.Size lanes to the server at addr without
// connecting; lanes dial on first use.
func NewPool(addr string, secret []byte, cfg PoolConfig) *ClientPool {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	secret = append([]byte(nil), secret...)
	p := &ClientPool{
		lanes:         make([]*lane, cfg.Size),
		inflight:      make([]int, cfg.Size),
		laneState:     make([]BreakerState, cfg.Size),
		onStateChange: cfg.Resilience.OnStateChange,
		tel:           newPoolTel(cfg.Resilience.Registry, cfg.Resilience.Name),
	}
	p.ops = ops{x: p, put: newPutTel(cfg.Resilience.Registry, cfg.Resilience.Name)}
	for i := range p.lanes {
		lane := i
		lcfg := cfg.Resilience
		// De-correlate the lanes' backoff jitter so a server restart does
		// not see N synchronized reconnect storms.
		lcfg.JitterSeed ^= uint64(lane) * 0x9E3779B97F4A7C15
		lcfg.OnStateChange = func(from, to BreakerState) { p.laneStateChanged(lane) }
		p.lanes[i] = newLane(addr, secret, lcfg)
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
// remaining lanes dial lazily as load arrives, and every lane heals
// itself independently afterwards.
func DialPool(addr string, secret []byte, cfg PoolConfig) (*ClientPool, error) {
	p := NewPool(addr, secret, cfg)
	if _, err := p.lanes[0].exchange(call{op: "dial"}); err != nil {
		return nil, fmt.Errorf("memserver: pool dial %s: %w", addr, err)
	}
	return p, nil
}

// Size returns the number of lanes.
func (p *ClientPool) Size() int { return len(p.lanes) }

// acquire picks the least-loaded lane, preferring lanes whose breaker is
// not open: while one connection's server-side socket is wedged, traffic
// flows over its healthy siblings instead of failing fast for no reason.
// If every breaker is open the least-loaded lane is returned anyway and
// the caller fails fast there (or rides its half-open probe).
func (p *ClientPool) acquire() int {
	p.mu.Lock()
	best, bestOpen := -1, -1
	for i := range p.lanes {
		if p.laneState[i] != BreakerOpen {
			if best < 0 || p.inflight[i] < p.inflight[best] {
				best = i
			}
		} else if bestOpen < 0 || p.inflight[i] < p.inflight[bestOpen] {
			bestOpen = i
		}
	}
	if best < 0 {
		best = bestOpen
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

// exchange dispatches one call to the least-loaded lane. Single-request
// traffic sticks to one warm connection; a pipelined prefetcher or a
// streamed upload issues calls concurrently and they spread across all
// lanes, so they genuinely overlap on the wire.
func (p *ClientPool) exchange(c call) ([]byte, error) {
	i := p.acquire()
	defer p.release(i)
	return p.lanes[i].exchange(c)
}

// laneStateChanged records a lane's breaker transition and recomputes the
// aggregate state, invoking the pool-level OnStateChange outside the lock
// when the aggregate moved.
//
// The lane's CURRENT state is re-read from the lane rather than taken
// from the callback arguments: breaker callbacks fire outside the lane's
// mutex, so two rapid transitions (open → half-open → closed) can be
// delivered out of order, and trusting the callback's "to" would park
// the cached state at a stale value forever once the lane stops
// transitioning. Re-reading converges: whichever delivery runs last
// sees the lane's settled state. (Lock order is p.mu → lane.mu; lane
// callbacks never run under lane.mu, so there is no inversion, and a
// lane never holds its mutex across a dial or a round trip, so p.mu —
// which every acquire takes — is never parked behind the network.)
func (p *ClientPool) laneStateChanged(lane int) {
	p.mu.Lock()
	p.laneState[lane] = p.lanes[lane].breakerState()
	agg := AggregateBreaker(p.laneState)
	from := p.aggState
	changed := agg != from
	if changed {
		p.aggState = agg
	}
	var open float64
	for _, s := range p.laneState {
		if s == BreakerOpen {
			open++
		}
	}
	p.mu.Unlock()
	p.tel.lanesOpen.Set(open)
	if changed && p.onStateChange != nil {
		p.onStateChange(from, agg)
	}
}

// BreakerState returns the aggregate breaker state (see AggregateBreaker).
// Memtap's Degraded check reads this: a pool is degraded only when no
// lane can reach the server.
func (p *ClientPool) BreakerState() BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.aggState
}

// ResilienceStats sums the lanes' counters; State is the aggregate.
func (p *ClientPool) ResilienceStats() ResilienceStats {
	var out ResilienceStats
	for _, lane := range p.lanes {
		out.Add(lane.resilienceStats())
	}
	out.State = p.BreakerState()
	return out
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
