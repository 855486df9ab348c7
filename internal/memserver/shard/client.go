package shard

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// maxHintBytes bounds the hinted-handoff buffer kept per unreachable
// backend. Overflow discards the backend's hints and marks it for full
// re-replication from the surviving replicas on rejoin.
const maxHintBytes = 256 << 20

// DefaultRebalanceBatchPages is the copy unit of the rebalancer and
// repair paths: pages fetched, re-encoded and verified per round trip.
const DefaultRebalanceBatchPages = 256

// DefaultProbeInterval paces the background health prober that walks
// open breakers (so a rejoined backend is noticed even on an idle or
// read-only fabric) and re-arms pending hint replays.
const DefaultProbeInterval = 250 * time.Millisecond

// Config tunes a shard fabric client. The zero value gives 2-way
// replication over 4-MiB page ranges with default pools.
type Config struct {
	// Replicas is the number of backends each page range is written to
	// (and may be read from). <= 0 takes DefaultReplicas; values above
	// the backend count are clamped (and un-clamp as backends join).
	Replicas int
	// RangePages is the placement-unit size in pages: contiguous ranges
	// of this many pages share a replica set. <= 0 takes
	// DefaultRangePages.
	RangePages int
	// Pool configures every backend's connection pool. The resilience
	// Name (default "shard") is suffixed with the backend's stable shard
	// index so each backend's oasis_client_* series stay
	// distinguishable, and the JitterSeed is perturbed per backend to
	// de-correlate reconnect storms across the fabric.
	Pool memserver.PoolConfig
	// Dialer overrides how one backend connection is established (tests
	// and chaos harnesses wrap the transport, Connect dials TLS with a
	// cert pool). Nil uses memserver.Dial with the fabric secret.
	Dialer func(addr string) (*memserver.Client, error)
	// RebalanceBytesPerSec caps the encoded bytes per second the
	// background rebalancer and repair paths copy between backends, so a
	// membership change does not starve foreground page traffic. <= 0
	// means unpaced.
	RebalanceBytesPerSec int64
	// RebalanceBatchPages is the copy/verify unit of the rebalancer.
	// <= 0 takes DefaultRebalanceBatchPages.
	RebalanceBatchPages int
	// ProbeInterval paces the background health prober; <= 0 takes
	// DefaultProbeInterval.
	ProbeInterval time.Duration
}

// backendRef is one backend's identity for the life of its membership:
// address, connection pool, and the stable shard index its telemetry
// series are labeled with.
type backendRef struct {
	addr string
	pool *memserver.ClientPool
	tidx int
}

// epochState is one immutable membership epoch. The client swaps whole
// epochs atomically; in-flight operations keep the epoch they loaded, so
// a membership change never changes placement under an operation
// half-way through. During a transition prevRing/prev carry the previous
// epoch's membership: ranges whose ownership moved stay pinned to their
// old owners (reads and a share of the writes) until the rebalancer has
// copied and byte-verified them on the new owners.
type epochState struct {
	version  uint64
	ring     *Ring
	cur      []*backendRef // aligned with ring.Addrs()
	prevRing *Ring         // non-nil while a transition is rebalancing
	prev     []*backendRef // aligned with prevRing.Addrs()
}

// refByAddr finds a backend in the epoch (current first, then outgoing).
func (st *epochState) refByAddr(addr string) *backendRef {
	for _, ref := range st.cur {
		if ref.addr == addr {
			return ref
		}
	}
	for _, ref := range st.prev {
		if ref.addr == addr {
			return ref
		}
	}
	return nil
}

// allRefs returns the current members plus any outgoing (prev-only)
// members still serving moved ranges, deduplicated by address.
func (st *epochState) allRefs() []*backendRef {
	if st.prevRing == nil {
		return st.cur
	}
	out := append(make([]*backendRef, 0, len(st.cur)+1), st.cur...)
	for _, ref := range st.prev {
		if !hasAddr(out, ref.addr) {
			out = append(out, ref)
		}
	}
	return out
}

// rangeKey identifies one placement range of one VM.
type rangeKey struct {
	vm  pagestore.VMID
	rng int64
}

// imageInfo is one tracked VM image: its allocation and the membership
// epoch its last full-image write was partitioned under. The epoch lets
// a membership change tell whether an image that appeared while the
// change was being prepared still needs catching up (registered on the
// joiner, its moved ranges marked pending) or already wrote through the
// new ring.
type imageInfo struct {
	alloc units.Bytes
	epoch uint64
}

// Client fans memory-server operations out over a consistent-hash ring
// of backends. It implements the same read surface as a single
// memserver.ClientPool (memtap.PageClient, staged fetches, breaker
// reporting) and the same upload surface the agent's detach pipeline
// uses (PutImage/PutDiff/StreamImage/StreamDiff), so every existing
// consumer can point at a fabric instead of one daemon.
//
// The membership is elastic: AddBackend and RemoveBackend swap in a new
// ring epoch atomically and a background rebalancer migrates only the
// ranges whose ownership moved, serving reads from the old owners until
// each new copy is byte-verified. Writes are strict per range — every
// reachable replica must acknowledge, and a range whose last replica is
// unreachable fails the write — but a write missing on an unreachable
// backend is buffered as a hint and replayed in order when the backend
// rejoins (hinted handoff). A backend that rejoins without its data
// (crash and restart) is re-replicated from the surviving copies.
//
// The client rebalances the VMs whose images were uploaded through it
// (it tracks their allocations); images uploaded through a different
// client still read and fail over correctly, but membership changes do
// not migrate their data.
//
// Client is safe for concurrent use.
type Client struct {
	cfg     Config                    // normalized: defaults filled in
	baseRes memserver.ResilientConfig // per-backend template
	onState func(from, to memserver.BreakerState)
	tel     *shardTel

	state atomic.Pointer[epochState]

	// adminSem serializes membership transitions end to end (swap
	// through rebalance completion); a buffered channel rather than a
	// mutex because the background rebalancer releases it.
	adminSem chan struct{}

	mu           sync.Mutex
	images       map[pagestore.VMID]imageInfo
	vmLocks      map[pagestore.VMID]*sync.Mutex
	nextTidx     int
	transDone    chan struct{} // non-nil while a transition rebalances
	lastRebalErr error

	// pending marks ranges whose ownership moved in the current
	// transition and whose new copies are not yet verified; guarded
	// separately so the read hot path takes only an RLock (and only
	// during a transition).
	pendMu  sync.RWMutex
	pending map[rangeKey]bool

	// hints holds the per-backend hinted-handoff logs, each bounded to
	// hintLimit bytes (maxHintBytes; tests lower it); taint counts
	// backends with any stale-data debt so the read path can skip the
	// lookup entirely when the fabric is clean.
	hintMu    sync.Mutex
	hints     map[string]*hintLog
	hintLimit int64
	taint     atomic.Int32

	recovering sync.Map // addr → struct{}: recovery goroutine in flight

	onHealth atomic.Pointer[func()]

	lifeMu sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// The fabric client is a full memserver.Conn: anything that can talk to
// one daemon can talk to a fabric.
var _ memserver.Conn = (*Client)(nil)

// errHinted marks a replica write that was buffered for replay instead
// of acknowledged (internal to the write fan-out).
var errHinted = errors.New("shard: write hinted for unreachable backend")

// Dial connects a shard client to the fabric at addrs. Like
// memserver.DialPool, the first lane of every backend dials eagerly so
// a bad address or secret surfaces immediately; afterwards each lane
// heals itself independently and a dead backend only affects the ranges
// it owns.
func Dial(addrs []string, secret []byte, cfg Config) (*Client, error) {
	c, err := New(addrs, secret, cfg)
	if err != nil {
		return nil, err
	}
	// Stats is the cheapest op that proves address + secret; it also
	// warms each pool's first lane.
	err = c.eachBackend(func(ref *backendRef) error {
		_, err := ref.pool.Stats()
		return err
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// New builds a shard client without connecting; backends dial on first
// use. Tests and chaos harnesses use it to build fabrics over injected
// transports.
func New(addrs []string, secret []byte, cfg Config) (*Client, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.RangePages <= 0 {
		cfg.RangePages = DefaultRangePages
	}
	if cfg.RebalanceBatchPages <= 0 {
		cfg.RebalanceBatchPages = DefaultRebalanceBatchPages
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	secret = append([]byte(nil), secret...)
	if cfg.Dialer == nil {
		timeout := cfg.Pool.Resilience.DialTimeout
		cfg.Dialer = func(addr string) (*memserver.Client, error) {
			return memserver.Dial(addr, secret, timeout)
		}
	}
	ring, err := NewRing(addrs, cfg.Replicas, cfg.RangePages, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	base := cfg.Pool.Resilience
	if base.Name == "" {
		base.Name = "shard"
	}
	c := &Client{
		cfg:       cfg,
		baseRes:   base,
		onState:   base.OnStateChange,
		tel:       newShardTel(base.Registry),
		adminSem:  make(chan struct{}, 1),
		images:    make(map[pagestore.VMID]imageInfo),
		vmLocks:   make(map[pagestore.VMID]*sync.Mutex),
		pending:   make(map[rangeKey]bool),
		hints:     make(map[string]*hintLog),
		hintLimit: maxHintBytes,
		done:      make(chan struct{}),
	}
	refs := make([]*backendRef, len(addrs))
	for i, addr := range addrs {
		refs[i] = c.newBackendRef(addr)
	}
	c.state.Store(&epochState{version: 1, ring: ring, cur: refs})
	c.tel.backends.Set(float64(len(refs)))
	c.tel.replicas.Set(float64(ring.Replicas()))
	c.tel.ringVersion.Set(1)
	c.spawn(c.probeLoop)
	return c, nil
}

// newBackendRef allocates a backend identity: the next stable shard
// index and a connection pool whose breaker transitions feed the
// fabric's health machinery (hint replay, repair, the under-replication
// gauge) before reaching any caller-supplied hook.
func (c *Client) newBackendRef(addr string) *backendRef {
	c.mu.Lock()
	tidx := c.nextTidx
	c.nextTidx++
	c.mu.Unlock()
	c.tel.ensure(tidx)
	ref := &backendRef{addr: addr, tidx: tidx}
	pcfg := c.cfg.Pool
	pcfg.Resilience = c.baseRes
	pcfg.Resilience.Name = c.baseRes.Name + "-" + strconv.Itoa(tidx)
	pcfg.Resilience.JitterSeed ^= uint64(tidx+1) * 0xD6E8FEB86659FD93
	pcfg.Resilience.Dialer = func() (*memserver.Client, error) { return c.cfg.Dialer(addr) }
	pcfg.Resilience.OnStateChange = func(from, to memserver.BreakerState) {
		c.poolStateChanged(ref, from, to)
	}
	ref.pool = memserver.NewPool(pcfg)
	return ref
}

// poolStateChanged is every backend pool's aggregate breaker hook: a
// close re-arms hint replay and crash repair, any transition refreshes
// the under-replication gauge, and the caller's own hook (the memtap
// degraded-gauge recompute) still fires afterwards.
func (c *Client) poolStateChanged(ref *backendRef, from, to memserver.BreakerState) {
	if to == memserver.BreakerClosed && from != memserver.BreakerClosed {
		// The backend just came back: force a presence probe of every
		// tracked VM (a restart-empty crash leaves no hint evidence)
		// and drain any queued hints.
		c.triggerRecover(ref.addr, true)
	}
	c.spawn(func() { c.refreshHealth() })
	if c.onState != nil {
		c.onState(from, to)
	}
}

// spawn runs fn on a tracked goroutine unless the client is closed.
func (c *Client) spawn(fn func()) bool {
	c.lifeMu.Lock()
	if c.closed {
		c.lifeMu.Unlock()
		return false
	}
	c.wg.Add(1)
	c.lifeMu.Unlock()
	go func() {
		defer c.wg.Done()
		fn()
	}()
	return true
}

// probeLoop keeps the fabric self-healing on idle or read-only
// workloads: reads route around an open breaker, so without a prober a
// dead backend would never see the op that closes its breaker again.
// Each tick issues one cheap Stats probe per open backend (riding the
// breaker's half-open window) and re-arms hint replay for backends whose
// breaker never opened.
func (c *Client) probeLoop() {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	var inflight sync.Map
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		st := c.state.Load()
		for _, ref := range st.allRefs() {
			if ref.pool.BreakerState() != memserver.BreakerOpen {
				c.maybeRecover(ref.addr)
				continue
			}
			ref := ref
			if _, busy := inflight.LoadOrStore(ref.addr, struct{}{}); busy {
				continue
			}
			// Through c.spawn, not a bare go: Close() must drain
			// in-flight probes before it shuts the backend pools down.
			ok := c.spawn(func() {
				defer inflight.Delete(ref.addr)
				ref.pool.Stats() //nolint:errcheck // probe: success flips the breaker, failure re-arms it
			})
			if !ok {
				inflight.Delete(ref.addr)
			}
		}
	}
}

// Ring exposes the current placement ring (tests, diagnostics).
func (c *Client) Ring() *Ring { return c.state.Load().ring }

// RingVersion returns the membership epoch, bumped by every AddBackend/
// RemoveBackend.
func (c *Client) RingVersion() uint64 { return c.state.Load().version }

// Backends returns the fabric's current backend addresses in ring order.
func (c *Client) Backends() []string {
	return c.state.Load().ring.Addrs()
}

// OnHealthChange registers fn to run whenever the fabric's replication
// health changes (a breaker transition, a hint buffered or replayed, a
// rebalance or repair settling). The memtap layer uses it to keep the
// per-VM degraded gauge reflecting under-replication, not just total
// loss.
func (c *Client) OnHealthChange(fn func()) {
	if fn == nil {
		c.onHealth.Store(nil)
		return
	}
	c.onHealth.Store(&fn)
}

// Close stops the background machinery (prober, rebalancer, hint
// replay) and shuts every backend pool down. Like the pools themselves,
// the client may still serve operations afterwards — lanes reconnect on
// demand — but membership no longer heals itself.
func (c *Client) Close() error {
	c.lifeMu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.lifeMu.Unlock()
	c.wg.Wait()
	var first error
	for _, ref := range c.state.Load().allRefs() {
		if err := ref.pool.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BreakerState aggregates across backends the way a pool aggregates
// across lanes: the fabric is Open only when every backend's pool is
// open (no shard can serve anything).
func (c *Client) BreakerState() memserver.BreakerState {
	refs := c.state.Load().allRefs()
	states := make([]memserver.BreakerState, len(refs))
	for i, ref := range refs {
		states[i] = ref.pool.BreakerState()
	}
	return memserver.AggregateBreaker(states)
}

// ResilienceStats sums the backend pools' counters; State is the
// fabric aggregate.
func (c *Client) ResilienceStats() memserver.ResilienceStats {
	var out memserver.ResilienceStats
	for _, ref := range c.state.Load().allRefs() {
		out.Add(ref.pool.ResilienceStats())
	}
	out.State = c.BreakerState()
	return out
}

// image returns the record of a VM this client uploaded (and therefore
// manages replication for); ok is false for any other VM.
func (c *Client) image(id pagestore.VMID) (info imageInfo, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok = c.images[id]
	return info, ok
}

// imageAllocs snapshots the tracked VMs and their allocations.
func (c *Client) imageAllocs() map[pagestore.VMID]units.Bytes {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[pagestore.VMID]units.Bytes, len(c.images))
	for id, info := range c.images {
		out[id] = info.alloc
	}
	return out
}

// vmLock returns the per-VM mutex serializing this VM's writes with the
// rebalancer's copy batches, the hint replays and repairs (the ordering
// that keeps replicas convergent).
func (c *Client) vmLock(id pagestore.VMID) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	lk := c.vmLocks[id]
	if lk == nil {
		lk = &sync.Mutex{}
		c.vmLocks[id] = lk
	}
	return lk
}

func rngOf(ring *Ring, pfn pagestore.PFN) int64 { return int64(pfn) / ring.RangePages() }

// isPending reports whether the range is mid-migration (its new copies
// not yet verified). Only consulted while a transition is in flight.
func (c *Client) isPending(k rangeKey) bool {
	c.pendMu.RLock()
	p := c.pending[k]
	c.pendMu.RUnlock()
	return p
}

func (c *Client) clearPending(k rangeKey) {
	c.pendMu.Lock()
	delete(c.pending, k)
	c.pendMu.Unlock()
}

func (c *Client) pendingCount() int {
	c.pendMu.RLock()
	n := len(c.pending)
	c.pendMu.RUnlock()
	return n
}

// isTainted reports whether addr's copy of any of keys may be stale:
// unreplayed hinted writes cover it, the backend owes a full repair, or
// a recovery pass — which may be rebuilding it from an empty image — is
// running on it. Tainted replicas never serve reads or copies.
func (c *Client) isTainted(addr string, keys ...rangeKey) bool {
	if c.taint.Load() == 0 {
		return false
	}
	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	hl := c.hints[addr]
	return hl != nil && (hl.needsRepair || hl.replaying ||
		slices.ContainsFunc(keys, func(k rangeKey) bool { return hl.dirty[k] }))
}

// route is one (VM, range)'s replica sets under one epoch. While a
// transition has the range pending, its new owners hold a
// registered-but-empty image whose absent pages read back as zeros —
// legitimate-looking wrong bytes — so they take writes but serve nothing
// until the rebalancer has filled and verified them.
type route struct {
	// read serves reads and is the source of every copy: the previous
	// owners while the range is pending, otherwise the current ones.
	read []*backendRef
	// write must take every write: the current owners, plus the previous
	// ones while the range is pending.
	write []*backendRef
	// fill is what the rebalancer copies the range onto: the current
	// owners that were not previous owners, while the range is pending.
	fill []*backendRef
}

// route resolves k's replica sets under st. It is the one place a range
// is mapped to backends: reads, partitioning, the rebalancer, repair and
// the under-replication gauge all take their sets from here, so none
// can route where another would not. In particular a settled range
// never reads or copies from a previous owner, which stopped receiving
// writes when the range settled.
func (c *Client) route(st *epochState, k rangeKey) route {
	pfn := pagestore.PFN(k.rng * st.ring.RangePages())
	var r route
	for _, i := range st.ring.Owners(k.vm, pfn) {
		r.write = append(r.write, st.cur[i])
	}
	if st.prevRing == nil || !c.isPending(k) {
		r.read = r.write
		return r
	}
	for _, i := range st.prevRing.Owners(k.vm, pfn) {
		r.read = append(r.read, st.prev[i])
	}
	for _, ref := range r.write {
		if !hasAddr(r.read, ref.addr) {
			r.fill = append(r.fill, ref)
		}
	}
	for _, ref := range r.read {
		if !hasAddr(r.write, ref.addr) {
			r.write = append(r.write, ref)
		}
	}
	return r
}

// hasAddr reports whether refs holds the backend at addr.
func hasAddr(refs []*backendRef, addr string) bool {
	return slices.ContainsFunc(refs, func(ref *backendRef) bool { return ref.addr == addr })
}

// readVia runs fn against refs in preference order until one succeeds:
// backends with an open breaker are deferred, not skipped (if every
// replica is open the primary is still tried, riding its half-open
// probe), and a replica tainted for any of keys is excluded outright —
// stale bytes returned as success would be corruption, where an error is
// just a failover. It returns the replica that served (nil if none) and
// every failure, joined with its address. Foreground reads and range
// copies both read through it.
func (c *Client) readVia(refs []*backendRef, id pagestore.VMID, keys []rangeKey, fn func(p *memserver.ClientPool) error) (*backendRef, []error) {
	var errs []error
	for _, open := range [2]bool{false, true} {
		for _, ref := range refs {
			if (ref.pool.BreakerState() == memserver.BreakerOpen) != open || c.isTainted(ref.addr, keys...) {
				continue
			}
			err := fn(ref.pool)
			if err == nil {
				return ref, errs
			}
			if memserver.IsUnknownVM(err) {
				if _, tracked := c.image(id); tracked {
					// The backend is up but lost a VM we registered with
					// it: it restarted empty. Flag the repair so the
					// replica count recovers (the read just fails over).
					c.markLost(ref.addr)
				}
			}
			errs = append(errs, fmt.Errorf("backend %s: %w", ref.addr, err))
		}
	}
	return nil, errs
}

// read is a foreground read through readVia, with its telemetry. On
// total failure every replica's error is reported, so operators see
// which replicas failed and why.
func (c *Client) read(refs []*backendRef, id pagestore.VMID, pfn pagestore.PFN, keys []rangeKey, fn func(p *memserver.ClientPool) error) error {
	served, errs := c.readVia(refs, id, keys, fn)
	if served != nil {
		if len(errs) > 0 {
			c.tel.failovers.Add(float64(len(errs)))
		}
		c.tel.read(served.tidx).Inc()
		return nil
	}
	if len(errs) > 1 {
		c.tel.failovers.Add(float64(len(errs) - 1))
	}
	c.tel.readErrs.Inc()
	if len(errs) == 0 {
		errs = append(errs, memserver.ErrCircuitOpen)
	}
	return fmt.Errorf("shard: vm %04d pfn %d: all %d replicas failed: %w",
		id, pfn, len(refs), errors.Join(errs...))
}

// GetPage fetches one guest page from the range's replica set.
func (c *Client) GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	page, _, _, err := c.GetPageStaged(id, pfn)
	return page, err
}

// GetPageStaged fetches one page with wire/decompress stage timings
// (from the replica that served it), so shard-backed memtaps keep their
// fault-path stage attribution.
func (c *Client) GetPageStaged(id pagestore.VMID, pfn pagestore.PFN) (page []byte, wire, decompress time.Duration, err error) {
	st := c.state.Load()
	k := rangeKey{id, rngOf(st.ring, pfn)}
	err = c.read(c.route(st, k).read, id, pfn, []rangeKey{k}, func(p *memserver.ClientPool) error {
		var err error
		page, wire, decompress, err = p.GetPageStaged(id, pfn)
		return err
	})
	return page, wire, decompress, err
}

// GetPages fetches a batch of pages. The batch is grouped by read route
// — with range-aligned batches (the prefetcher's default) a whole batch
// is one group on one shard — and the groups fetch concurrently, each
// failing over independently.
func (c *Client) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	if len(pfns) == 0 {
		return map[pagestore.PFN][]byte{}, nil
	}
	groups := c.groupByRoute(c.state.Load(), id, pfns)
	out := make(map[pagestore.PFN][]byte, len(pfns))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// All pages in the group are read over the route resolved when
			// they were grouped: resolving it again would send pages of a
			// still-pending range to a new owner it has not been copied to
			// whenever another range of the group settles in between.
			err := c.read(g.refs, id, g.pfns[0], g.keys, func(p *memserver.ClientPool) error {
				pages, err := p.GetPages(id, g.pfns)
				if err != nil {
					return err
				}
				mu.Lock()
				for pfn, pg := range pages {
					out[pfn] = pg
				}
				mu.Unlock()
				return nil
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// readGroup is the pages of a batch whose ranges share one read route;
// keys are those ranges, so a replica tainted for any of them is skipped.
type readGroup struct {
	refs []*backendRef
	keys []rangeKey
	pfns []pagestore.PFN
}

// groupByRoute splits a PFN batch by read route, preserving order
// within each group. The route is resolved once per range, and a run of
// pages in one range costs no lookup at all; ranges with the same route
// share a group, so a random batch costs one RPC per route.
func (c *Client) groupByRoute(st *epochState, id pagestore.VMID, pfns []pagestore.PFN) []readGroup {
	var groups []readGroup
	groupOf := make(map[int64]int)
	last, g := int64(0), -1
	for _, pfn := range pfns {
		if rng := rngOf(st.ring, pfn); g < 0 || rng != last {
			i, ok := groupOf[rng]
			if !ok {
				k := rangeKey{id, rng}
				refs := c.route(st, k).read
				i = slices.IndexFunc(groups, func(x readGroup) bool { return slices.Equal(x.refs, refs) })
				if i < 0 {
					i = len(groups)
					groups = append(groups, readGroup{refs: refs})
				}
				groups[i].keys = append(groups[i].keys, k)
				groupOf[rng] = i
			}
			last, g = rng, i
		}
		groups[g].pfns = append(groups[g].pfns, pfn)
	}
	return groups
}

// writeKind selects the replica write operation of one fan-out.
type writeKind int

const (
	wImage writeKind = iota
	wStreamImage
	wDiff
	wStreamDiff
	wDelete
)

func (k writeKind) String() string {
	switch k {
	case wImage:
		return "PutImage"
	case wStreamImage:
		return "StreamImage"
	case wDiff:
		return "PutDiff"
	case wDelete:
		return "Delete"
	default:
		return "StreamDiff"
	}
}

func (k writeKind) image() bool { return k == wImage || k == wStreamImage }

// send issues the write k names against one backend's pool. An
// unknown-VM answer to a delete is success: the VM is already gone.
func (k writeKind) send(p *memserver.ClientPool, id pagestore.VMID, alloc units.Bytes, part []byte, opts memserver.PutOptions) error {
	switch k {
	case wImage:
		return p.PutImage(id, alloc, part)
	case wStreamImage:
		return p.StreamImage(id, alloc, part, opts)
	case wDiff:
		return p.PutDiff(id, part)
	case wStreamDiff:
		return p.StreamDiff(id, part, opts)
	}
	if err := p.Delete(id); !memserver.IsUnknownVM(err) {
		return err
	}
	return nil
}

// writeSnapshot is the single replica-write fan-out behind
// PutImage/PutDiff/StreamImage/StreamDiff. Partitioning follows each
// range's write set. A replica that cannot be reached gets its part
// buffered as a hint; the operation as a whole succeeds only if every
// range acknowledged on at least one clean replica.
func (c *Client) writeSnapshot(kind writeKind, id pagestore.VMID, alloc units.Bytes, snapshot []byte, opts memserver.PutOptions) error {
	lk := c.vmLock(id)
	lk.Lock()
	defer lk.Unlock()
	for {
		st := c.state.Load()
		if err := c.writeSnapshotEpoch(st, kind, id, alloc, snapshot, opts); err != nil {
			return err
		}
		if !kind.image() {
			return nil
		}
		// Publish, then validate: record the image (tagged with the
		// epoch that placed its parts) before re-checking the version,
		// so a membership change either sees the record in its
		// post-swap re-diff or we see its new epoch here — never
		// neither. On a version change the whole fan-out re-runs under
		// the live ring (PutImage is an idempotent whole-image
		// replace), so the parts land where the new ring reads them.
		c.mu.Lock()
		c.images[id] = imageInfo{alloc: alloc, epoch: st.version}
		c.mu.Unlock()
		if c.state.Load().version == st.version {
			return nil
		}
	}
}

// writeSnapshotEpoch runs one replica-write fan-out against a fixed
// membership epoch. Caller holds the VM lock.
func (c *Client) writeSnapshotEpoch(st *epochState, kind writeKind, id pagestore.VMID, alloc units.Bytes, snapshot []byte, opts memserver.PutOptions) error {
	all := st.allRefs()
	idxOf := make(map[string]int, len(all))
	for i, ref := range all {
		idxOf[ref.addr] = i
	}
	// Pages arrive in runs of one range: the last range resolved answers
	// the rest of its run with a division and a compare.
	rangeOwners := make(map[int64][]int)
	var (
		lastRng    int64
		lastOwners []int
		resolved   bool
	)
	parts, err := pagestore.PartitionSnapshot(snapshot, len(all), func(pfn pagestore.PFN) []int {
		rng := rngOf(st.ring, pfn)
		if resolved && rng == lastRng {
			return lastOwners
		}
		owners, ok := rangeOwners[rng]
		if !ok {
			for _, ref := range c.route(st, rangeKey{id, rng}).write {
				owners = append(owners, idxOf[ref.addr])
			}
			rangeOwners[rng] = owners
		}
		lastRng, lastOwners, resolved = rng, owners, true
		return owners
	})
	if err != nil {
		return fmt.Errorf("shard: partition snapshot: %w", err)
	}

	// Ranges each backend's part covers, for the hint dirty marks.
	ranges := make([][]int64, len(all))
	for rng, owners := range rangeOwners {
		for _, i := range owners {
			ranges[i] = append(ranges[i], rng)
		}
	}
	errs, err := c.fanOut(all, kind, id, alloc, parts, opts, ranges)
	if err != nil {
		return err
	}
	for rng, owners := range rangeOwners {
		if !slices.ContainsFunc(owners, func(i int) bool { return errs[i] == nil }) {
			return fmt.Errorf("shard: %s vm %04d: range %d has no reachable replica (all owners down, writes hinted)",
				kind, id, rng)
		}
	}
	return nil
}

// fanOut sends one write to every backend in all at once — backend i
// gets parts[i], covering ranges[i] — and returns each backend's
// outcome: nil, errHinted, or the refusal of a healthy server, any of
// which fails the operation.
func (c *Client) fanOut(all []*backendRef, kind writeKind, id pagestore.VMID, alloc units.Bytes, parts [][]byte, opts memserver.PutOptions, ranges [][]int64) ([]error, error) {
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, ref := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.writePart(kind, ref, id, alloc, parts[i], opts, ranges[i])
		}()
	}
	wg.Wait()
	var hard []error
	for i, err := range errs {
		if err != nil && !errors.Is(err, errHinted) {
			hard = append(hard, fmt.Errorf("backend %s: %w", all[i].addr, err))
		}
	}
	if len(hard) > 0 {
		return errs, fmt.Errorf("shard: %s vm %04d: %w", kind, id, errors.Join(hard...))
	}
	return errs, nil
}

// writePart ships one backend's partition, routing through the hint log
// when older writes for that backend are still queued (replaying an old
// diff over a newer direct write would resurrect stale bytes, so order
// is preserved by queueing behind them) and buffering a fresh hint when
// the transport fails.
func (c *Client) writePart(kind writeKind, ref *backendRef, id pagestore.VMID, alloc units.Bytes, part []byte, opts memserver.PutOptions, ranges []int64) error {
	if c.enqueueIfQueued(ref.addr, kind, id, alloc, part, opts, ranges) {
		return errHinted
	}
	err := kind.send(ref.pool, id, alloc, part, opts)
	if err == nil {
		c.tel.write(ref.tidx).Inc()
		c.tel.byte(ref.tidx).Add(float64(len(part)))
		return nil
	}
	if memserver.IsRemoteError(err) && !memserver.IsUnknownVM(err) {
		// A healthy server refused the request: not a connectivity
		// problem, so hinting would just replay the refusal.
		return err
	}
	// Transport loss — or a backend that restarted empty and no longer
	// knows the VM (an unknown-VM refusal on a write we know we
	// registered): buffer the part for replay and flag the repair.
	c.addHint(ref.addr, hint{kind: kind, vm: id, alloc: alloc, part: part, opts: opts}, ranges, memserver.IsUnknownVM(err))
	c.maybeRecover(ref.addr)
	return errHinted
}

// PutImage uploads a full image, partitioned so each backend stores the
// page ranges it owns (as primary or replica). Every backend receives
// an image — possibly holding no pages — so the whole fabric knows the
// VM and later diffs and deletes are well-defined everywhere.
func (c *Client) PutImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte) error {
	return c.writeSnapshot(wImage, id, alloc, snapshot, memserver.PutOptions{})
}

// PutDiff applies a differential snapshot, partitioned like PutImage.
func (c *Client) PutDiff(id pagestore.VMID, snapshot []byte) error {
	return c.writeSnapshot(wDiff, id, 0, snapshot, memserver.PutOptions{})
}

// StreamImage uploads a full image through each backend's chunked
// streaming path, all backends in parallel (the detach pipeline's
// per-server overlap, multiplied across the fabric).
func (c *Client) StreamImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte, opts memserver.PutOptions) error {
	return c.writeSnapshot(wStreamImage, id, alloc, snapshot, opts)
}

// StreamDiff uploads a differential snapshot through each backend's
// chunked streaming path.
func (c *Client) StreamDiff(id pagestore.VMID, snapshot []byte, opts memserver.PutOptions) error {
	return c.writeSnapshot(wStreamDiff, id, 0, snapshot, opts)
}

// Delete frees the VM's image on every backend (including an outgoing
// one mid-transition) through the write fan-out: an unreachable backend
// gets the delete hinted so it applies on rejoin, and its queued writes
// for the VM are dropped.
func (c *Client) Delete(id pagestore.VMID) error {
	lk := c.vmLock(id)
	lk.Lock()
	defer lk.Unlock()
	all := c.state.Load().allRefs()
	_, err := c.fanOut(all, wDelete, id, 0, make([][]byte, len(all)), memserver.PutOptions{}, make([][]int64, len(all)))
	c.mu.Lock()
	delete(c.images, id)
	c.mu.Unlock()
	c.pendMu.Lock()
	for k := range c.pending {
		if k.vm == id {
			delete(c.pending, k)
		}
	}
	c.pendMu.Unlock()
	return err
}

// SetServing toggles page serving on every current backend.
func (c *Client) SetServing(on bool) error {
	return c.eachBackend(func(ref *backendRef) error { return ref.pool.SetServing(on) })
}

// eachBackend runs fn on every current backend concurrently and returns
// the first error (strict all-success).
func (c *Client) eachBackend(fn func(ref *backendRef) error) error {
	st := c.state.Load()
	var wg sync.WaitGroup
	errs := make([]error, len(st.cur))
	for i, ref := range st.cur {
		wg.Add(1)
		go func(i int, ref *backendRef) {
			defer wg.Done()
			errs[i] = fn(ref)
		}(i, ref)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: backend %d (%s): %w", i, st.cur[i].addr, err)
		}
	}
	return nil
}

// Stats aggregates backend counters: traffic sums across the fabric,
// VMs is the maximum (every backend hosts a partition of every VM), and
// Serving holds if every backend is serving.
func (c *Client) Stats() (memserver.Stats, error) {
	var (
		mu  sync.Mutex
		agg memserver.Stats
	)
	agg.Serving = true
	err := c.eachBackend(func(ref *backendRef) error {
		st, err := ref.pool.Stats()
		if err != nil {
			return err
		}
		mu.Lock()
		if st.VMs > agg.VMs {
			agg.VMs = st.VMs
		}
		agg.PagesServed += st.PagesServed
		agg.BytesServed += st.BytesServed
		agg.PagesUploaded += st.PagesUploaded
		agg.Serving = agg.Serving && st.Serving
		mu.Unlock()
		return nil
	})
	if err != nil {
		return memserver.Stats{}, err
	}
	return agg, nil
}
