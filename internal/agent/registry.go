package agent

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"oasis/internal/wire"
)

// The control plane's state store: a sharded host registry. One mutex
// over one map serialises every manager operation — fine for the
// paper's rack, a ceiling for a fleet where thousands of control-plane
// decisions land at once (a resume storm is exactly that). The registry
// shards the roster by host-name hash so lookups and registrations
// contend only within a shard, and each entry caches the host's last
// Stats reply with an epoch stamp and a single-flight refresh, so a
// storm of concurrent decisions costs one RPC per host, not one per
// decision.
//
// Lifecycle: every operation that may touch a host's RPC client runs
// inside do(), which holds the registry's lifecycle read-lock. Close
// takes the write side, so it refuses new operations and waits for
// in-flight RPCs to drain before closing any client — no goroutine can
// observe a client after Close.

// regShards is the shard count. Host-name FNV-1a spreads well for any
// naming scheme; 16 shards keep registration/lookup contention
// negligible at 10k hosts while costing nothing at 3.
const regShards = 16

// hostEntry is one registered host: its RPC client plus the cached,
// epoch-stamped stats the actuation layer refreshes.
type hostEntry struct {
	name   string
	addr   string
	client *wire.Client

	// statsMu guards the cached stats and the single-flight state.
	statsMu sync.Mutex
	// stats is the last successful Stats reply; valid when epoch > 0.
	stats Stats
	// epoch counts successful refreshes (0 = never fetched); readers
	// use it to tell a fresh reply from a re-read of the same snapshot.
	epoch uint64
	// fetchedAt is when stats was fetched (wall clock, staleness only).
	fetchedAt time.Time
	// lastErr is the outcome of the most recent refresh attempt.
	lastErr error
	// inflight is non-nil while a refresh RPC is running; waiters block
	// on it instead of issuing their own RPC (per-host single-flight).
	inflight chan struct{}
}

// refreshStats returns the host's stats, coalescing concurrent callers
// onto one in-flight RPC: the first caller becomes the leader and
// issues Agent.Stats; everyone arriving before it finishes waits and
// shares the leader's reply (and error). Coalesced waiters accept the
// shared snapshot — that is the point: under a decision storm the host
// answers once.
func (e *hostEntry) refreshStats() (Stats, uint64, error) {
	e.statsMu.Lock()
	if ch := e.inflight; ch != nil {
		e.statsMu.Unlock()
		managerTel.statsCoalesced.Inc()
		<-ch
		e.statsMu.Lock()
		st, ep, err := e.stats, e.epoch, e.lastErr
		e.statsMu.Unlock()
		return st, ep, err
	}
	ch := make(chan struct{})
	e.inflight = ch
	e.statsMu.Unlock()

	var st Stats
	err := e.client.Call("Agent.Stats", nil, &st)
	managerTel.statsRefreshes.Inc()

	e.statsMu.Lock()
	e.inflight = nil
	e.lastErr = err
	if err == nil {
		e.stats = st
		e.epoch++
		e.fetchedAt = time.Now()
	}
	st, ep := e.stats, e.epoch
	e.statsMu.Unlock()
	close(ch)
	if err != nil {
		return Stats{}, ep, fmt.Errorf("manager: stats %s: %w", e.name, err)
	}
	return st, ep, nil
}

// cachedStats returns the last refreshed stats without touching the
// wire; ok is false if the host has never answered.
func (e *hostEntry) cachedStats() (st Stats, epoch uint64, fetchedAt time.Time, ok bool) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats, e.epoch, e.fetchedAt, e.epoch > 0
}

// regShard is one registry shard.
type regShard struct {
	mu    sync.RWMutex
	hosts map[string]*hostEntry
}

// registry is the sharded host roster.
type registry struct {
	// life is the lifecycle lock: operations hold the read side for
	// their whole duration (RPCs included); close takes the write side.
	life   sync.RWMutex
	closed bool

	shards [regShards]regShard
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].hosts = make(map[string]*hostEntry)
	}
	return r
}

func (r *registry) shard(name string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.shards[h.Sum32()%regShards]
}

// errClosed is what every operation returns once Close has begun.
var errClosed = fmt.Errorf("manager: closed")

// do runs fn under the lifecycle read-lock. Close blocks until every
// in-flight do returns, so fn may use clients freely.
func (r *registry) do(fn func() error) error {
	r.life.RLock()
	defer r.life.RUnlock()
	if r.closed {
		return errClosed
	}
	return fn()
}

// add registers an entry; the caller owns entry.client on error.
func (r *registry) add(e *hostEntry) error {
	s := r.shard(e.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.hosts[e.name]; ok {
		return fmt.Errorf("manager: host %s already registered", e.name)
	}
	s.hosts[e.name] = e
	managerTel.hosts.Add(1)
	return nil
}

// get looks up a host entry.
func (r *registry) get(name string) (*hostEntry, error) {
	s := r.shard(name)
	s.mu.RLock()
	e, ok := s.hosts[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("manager: unknown host %s", name)
	}
	return e, nil
}

// snapshot returns every registered entry sorted by name, so fan-outs
// visit hosts (and join their errors) in a deterministic order.
func (r *registry) snapshot() []*hostEntry {
	var out []*hostEntry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, e := range s.hosts {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// close marks the registry closed (new operations are refused), waits
// for in-flight operations to drain, then closes every client and
// empties the roster. Idempotent.
func (r *registry) close() {
	r.life.Lock()
	defer r.life.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, e := range s.hosts {
			e.client.Close()
		}
		managerTel.hosts.Add(-float64(len(s.hosts)))
		s.hosts = make(map[string]*hostEntry)
		s.mu.Unlock()
	}
}
