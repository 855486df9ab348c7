// Package memtap implements the per-partial-VM pager process (§4.2): it
// receives page-fault notifications from the hypervisor and services them
// by fetching pages from the memory server that holds the VM's image,
// decompressing them, and installing the frames.
//
// In the Xen prototype memtap is a dom0 user process wired to the
// hypervisor through an event channel; here it is an object that satisfies
// hypervisor.Pager over a real memserver TCP connection. The connection is
// resilient by default: it reconnects with backoff across memory-server
// crashes and restarts, and when the server is gone long enough for the
// circuit breaker to open, the memtap reports the VM degraded so the host
// agent can force-promote it home from the last good image (§4.4.4)
// instead of wedging every guest fault.
//
// The fault path is concurrent: the hypervisor no longer serialises
// faults behind one lock, so several vCPUs may fault simultaneously.
// Memtap deduplicates concurrent faults on the same PFN (single-flight:
// one remote fetch satisfies every waiter), converts a VM with up to
// two prefetch batches in flight per connection, and can spread traffic
// over a connection pool (Options.PoolSize); see DESIGN.md §9 for the
// concurrency model.
package memtap

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/metrics"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// Live telemetry (process-wide, aggregated across a host's memtaps; see
// OBSERVABILITY.md). One fault in telemetry.FaultSampling also leaves a
// span in telemetry.FaultPath with the stage split fault → tap_lookup →
// remote_fetch → decompress → resolve.
var tel = struct {
	faults      *telemetry.Counter
	faultErrors *telemetry.Counter
	bytes       *telemetry.Counter
	latency     *telemetry.Histogram
	prefetched  *telemetry.Counter
	batches     *telemetry.Counter
	dedup       *telemetry.Counter
	inflight    *telemetry.Gauge
	reorder     *telemetry.Counter
	zeroElided  *telemetry.Counter
}{
	faults: telemetry.Default.Counter("oasis_memtap_faults_total",
		"Page faults serviced from memory servers."),
	faultErrors: telemetry.Default.Counter("oasis_memtap_fault_errors_total",
		"Page faults that failed (including degraded-path errors)."),
	bytes: telemetry.Default.Counter("oasis_memtap_fetched_bytes_total",
		"Uncompressed bytes installed into partial VMs (faults + prefetch)."),
	latency: telemetry.Default.Histogram("oasis_memtap_fault_seconds",
		"End-to-end page-fault service latency.", nil),
	prefetched: telemetry.Default.Counter("oasis_memtap_prefetched_pages_total",
		"Pages installed by PrefetchRemaining (partial→full conversion)."),
	batches: telemetry.Default.Counter("oasis_memtap_prefetch_batches_total",
		"GetPages batches issued by PrefetchRemaining."),
	dedup: telemetry.Default.Counter("oasis_memtap_singleflight_dedup_total",
		"Concurrent faults coalesced onto an already in-flight fetch of the same PFN."),
	inflight: telemetry.Default.Gauge("oasis_memtap_inflight_faults",
		"Remote page fetches currently in flight (single-flight leaders)."),
	reorder: telemetry.Default.Counter("oasis_memtap_prefetch_reorder_total",
		"Prefetch batches issued out of linear PFN order to follow the guest's recent fault locality."),
	zeroElided: telemetry.Default.Counter("oasis_client_zero_pages_elided_total",
		"Fetched pages recognized as the shared zero page and installed without a 4 KiB scan-and-copy."),
}

// degradedGauge returns the per-VM degraded gauge. It is graded: 0
// while the memory-server path is healthy, 1 while a fabric-backed VM
// is under-replicated (a backend down, hints queued, or tracked ranges
// below their replica target — reads still succeed via failover), and
// 2 while the path is unavailable (single-server breaker open, or every
// fabric backend down).
func degradedGauge(vmid pagestore.VMID) *telemetry.Gauge {
	return telemetry.Default.Gauge("oasis_memtap_degraded",
		"0 healthy, 1 fabric under-replicated (reads still served), 2 memory-server path unavailable.",
		telemetry.L("vm", fmt.Sprintf("%04d", vmid)))
}

// ErrDegraded marks fault-service errors taken while the memory server is
// unavailable (circuit open). The hypervisor surfaces it up the fault
// path; the agent reacts by promoting or quarantining the VM rather than
// retrying into a dead server.
var ErrDegraded = errors.New("memtap: memory server unavailable, VM degraded")

// PageClient is the slice of the memory-server client surface a memtap
// needs. Every memserver.Conn satisfies it; tests may supply in-process
// fakes. Every page GetPage and GetPages return is the caller's to keep
// and is never written again; the exception is the shared zero page,
// which belongs to no caller and which nobody writes. Memtap hands the
// pages on to the partial VM as they are (see hypervisor.Pager).
type PageClient interface {
	GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error)
	GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error)
	Close() error
}

// breakerReporter is implemented by clients that expose circuit-breaker
// state (memserver.ClientPool, shard.Client).
type breakerReporter interface {
	BreakerState() memserver.BreakerState
}

// fabricReporter is a client of a shard fabric (a shard.Client, or a
// lease on one): health grades it by the fabric's replication health.
type fabricReporter interface {
	breakerReporter
	FabricStatus() shard.Status
}

// stagedFetcher is implemented by clients that report the wire/decompress
// stage split of a page fetch (every memserver.Conn); FetchPage uses it
// to attribute fault latency in telemetry.FaultPath spans. Plain
// PageClients fall back to an undivided fetch stage.
type stagedFetcher interface {
	GetPageStaged(id pagestore.VMID, pfn pagestore.PFN) (page []byte, wire, decompress time.Duration, err error)
}

// DefaultResilience is the resilience configuration memtap.New gives its
// client. The host agent may tune it process-wide (e.g. from daemon
// flags) before creating memtaps; tests shrink the backoffs.
var DefaultResilience = memserver.ResilientConfig{}

// Options tune the transport a memtap dials. The zero value reproduces
// New's defaults: one resilient connection (a one-lane
// memserver.ClientPool), converted with up to two prefetch batches in
// flight (prefetchWorkers).
type Options struct {
	// Resilience overrides DefaultResilience for this memtap's
	// connection(s); nil uses DefaultResilience.
	Resilience *memserver.ResilientConfig
	// PoolSize > 1 widens the memserver.ClientPool to that many
	// connections, letting concurrent faults and pipelined prefetch
	// batches genuinely overlap on the wire.
	PoolSize int
	// PrefetchStreams is ignored: the batches PrefetchRemaining keeps in
	// flight follow from the lanes and the CPUs (prefetchWorkers). It is
	// kept so that existing configurations still compile.
	PrefetchStreams int
	// Backends, when non-empty, dials a sharded memory-server fabric
	// over these addresses instead of the single server at addr: page
	// reads route by consistent-hash placement and fail over between
	// replicas (see memserver/shard). The addr argument is ignored.
	Backends []string
	// Replicas is the fabric's replica count (only with Backends;
	// <= 0 takes the fabric default).
	Replicas int
}

// fetchCall is one remote fetch; followers wait on done and share the
// leader's result.
type fetchCall struct {
	done sync.WaitGroup // one count, the leader's; Done when page and err are set
	page []byte
	err  error
}

// flight is the single-flight state of one PFN. It lives while anyone
// holds it (HoldFetch): every FetchPage for its whole duration, and a
// faulting PartialVM from before it looks at the present bit until the
// page is installed. call is the fetch in progress or, once that has
// succeeded, its result, kept for the holders still to ask; it is nil
// before the first fetch and again after a failed one, so that a retry
// fetches afresh.
type flight struct {
	holds int
	call  *fetchCall
}

// Memtap services page faults for one partial VM from one memory server.
// It is safe for concurrent use.
type Memtap struct {
	vmid   pagestore.VMID
	client PageClient

	// Fault accounting is atomic: concurrent faults and prefetch streams
	// update these on the hot path without sharing a lock.
	faults atomic.Int64
	bytes  atomic.Int64
	dedup  atomic.Int64

	latMu   sync.Mutex
	latency metrics.Sample

	// inflight implements single-flight deduplication per PFN: the first
	// fault (the leader) fetches; faults on the same PFN until the last
	// holder lets go share its result instead of issuing duplicate remote
	// fetches.
	sfMu     sync.Mutex
	inflight map[pagestore.PFN]*flight

	// lanes is the connections one exchange may take (PoolSize, or the
	// wrapped client's Size).
	lanes int

	// faultRing is a small lossy ring of recently faulted PFNs (stored
	// +1 so zero means empty). The fault path publishes into it lock-free;
	// the prefetcher drains it to redirect its scan toward the guest's
	// current working set. Overwrites under pressure are fine — only the
	// freshest locality matters.
	faultRing  [faultRingSize]atomic.Int64
	faultRingW atomic.Uint32

	reorders   atomic.Int64
	zeroElided atomic.Int64
}

// faultRingSize bounds the fault-locality hint ring. 32 entries cover a
// few service rounds of concurrent vCPU faults without letting a long
// prefetch round chase stale history.
const faultRingSize = 32

// noteFault publishes a faulted PFN as a prefetch locality hint.
func (m *Memtap) noteFault(pfn pagestore.PFN) {
	slot := (m.faultRingW.Add(1) - 1) % faultRingSize
	m.faultRing[slot].Store(int64(pfn) + 1)
}

// takeFaultHint pops one recent-fault hint, newest-agnostic (slot order),
// or reports none pending.
func (m *Memtap) takeFaultHint() (pagestore.PFN, bool) {
	for i := range m.faultRing {
		if v := m.faultRing[i].Swap(0); v != 0 {
			return pagestore.PFN(v - 1), true
		}
	}
	return 0, false
}

// PrefetchReorders returns how many prefetch batches were issued out of
// linear order to follow fault locality.
func (m *Memtap) PrefetchReorders() int64 { return m.reorders.Load() }

// ZeroPagesElided returns how many fetched pages were recognized as the
// shared zero page and installed without copying.
func (m *Memtap) ZeroPagesElided() int64 { return m.zeroElided.Load() }

func newMemtap(vmid pagestore.VMID, client PageClient, lanes int) *Memtap {
	return &Memtap{
		vmid:     vmid,
		client:   client,
		inflight: make(map[pagestore.PFN]*flight),
		lanes:    max(lanes, 1),
	}
}

// New creates a memtap for the given VM, dialing the memory server at
// addr with the shared secret over a resilient connection (reconnect,
// retry, circuit breaker — see memserver.ClientPool). The agent
// configures each memtap with the host and port of the memory server
// containing the VM's pages (§4.2).
func New(vmid pagestore.VMID, addr string, secret []byte) (*Memtap, error) {
	return NewWithOptions(vmid, addr, secret, Options{})
}

// NewWithOptions is New with transport tuning: a connection pool and/or
// pipelined prefetch (see Options).
func NewWithOptions(vmid pagestore.VMID, addr string, secret []byte, opts Options) (*Memtap, error) {
	cfg := DefaultResilience
	if opts.Resilience != nil {
		cfg = *opts.Resilience
	}
	cfg.JitterSeed ^= uint64(vmid) // de-correlate backoff across a host's memtaps
	if cfg.Name == "" {
		cfg.Name = "memtap"
	}
	// Mirror breaker transitions into the per-VM degraded gauge without
	// displacing a caller-supplied hook. A pool has one breaker for its
	// server, so the gauge rises when that server is gone — exactly when
	// the VM is degraded. On a shard fabric it fires per backend, and
	// Report grades the fabric's replication health.
	inner := cfg.OnStateChange
	var dialed atomic.Pointer[memserver.Conn]
	cfg.OnStateChange = func(from, to memserver.BreakerState) {
		if c := dialed.Load(); c != nil {
			Report(*c, vmid)
		}
		if inner != nil {
			inner(from, to)
		}
	}
	conn, err := shard.Connect(shard.Target{
		Addr:       addr,
		Backends:   opts.Backends,
		Replicas:   opts.Replicas,
		Lanes:      opts.PoolSize,
		Resilience: &cfg,
	}, secret)
	if err != nil {
		return nil, fmt.Errorf("memtap: vm %04d: %w", vmid, err)
	}
	dialed.Store(&conn)
	if fab, ok := conn.(*shard.Client); ok {
		bindFabric(vmid, fab)
	}
	Report(conn, vmid)
	return newMemtap(vmid, conn, opts.PoolSize), nil
}

// NewWithClient wraps an existing client (used by tests and by agents
// that share one client between memtaps). A client's Size is the
// memtap's lanes. A *shard.Client is bound the same way NewWithOptions
// binds a dialed fabric: the per-VM degraded gauge tracks the fabric's
// replication health (this replaces any OnHealthChange hook). For any
// other client, a lease on a shared fabric included, the gauge is the
// owner's to keep, with Report.
func NewWithClient(vmid pagestore.VMID, client PageClient) *Memtap {
	lanes := 1
	if p, ok := client.(interface{ Size() int }); ok {
		lanes = p.Size()
	}
	if fab, ok := client.(*shard.Client); ok {
		bindFabric(vmid, fab)
	}
	return newMemtap(vmid, client, lanes)
}

// bindFabric keeps VM vmid's degraded gauge on a fabric's health.
func bindFabric(vmid pagestore.VMID, fab *shard.Client) {
	fab.OnHealthChange(func() { Report(fab, vmid) })
	Report(fab, vmid)
}

// Report sets the degraded gauge of every VM in vms, all paging through
// c, from c's health (the owner of a shared client calls it).
func Report(c PageClient, vms ...pagestore.VMID) {
	level := float64(health(c))
	for _, vm := range vms {
		degradedGauge(vm).Set(level)
	}
}

// health grades a client for the degraded gauge. A fabric is 0 healthy,
// 1 under-replicated (at least one backend down or owing repair/hint
// replay, or tracked ranges below their replica target — reads still
// work), 2 total loss (every backend's breaker open; faults cannot be
// serviced). One server is 2 while its breaker is open, else 0.
func health(c PageClient) int {
	if br, ok := c.(breakerReporter); ok && br.BreakerState() == memserver.BreakerOpen {
		return 2
	}
	f, ok := c.(fabricReporter)
	if !ok {
		return 0
	}
	st := f.FabricStatus()
	if st.UnderreplicatedRanges > 0 || slices.ContainsFunc(st.Backends, func(b shard.BackendStatus) bool {
		return b.Breaker == "open" || b.NeedsRepair || b.HintQueue > 0
	}) {
		return 1
	}
	return 0
}

// Degraded reports whether the memory-server path is unavailable: the
// pool's circuit breaker is open (for a fabric: every backend's), so
// guest faults cannot be serviced and the agent should promote or
// quarantine the VM (§4.4.4). Memtaps over non-resilient clients never
// report degraded.
func (m *Memtap) Degraded() bool {
	if br, ok := m.client.(breakerReporter); ok {
		return br.BreakerState() == memserver.BreakerOpen
	}
	return false
}

// Underreplicated reports whether the memtap's fabric is serving with
// reduced redundancy: a backend down or owing hint replay/repair, or
// tracked ranges below their replica target. Reads still succeed via
// failover (Degraded stays false), but the VM is one more failure away
// from losing pages. Always false for non-fabric memtaps.
func (m *Memtap) Underreplicated() bool {
	_, ok := m.client.(fabricReporter)
	return ok && health(m.client) >= 1
}

// Resilience snapshots the client's retry/reconnect/breaker counters
// (zero value for non-resilient clients; summed across backends for a
// fabric).
func (m *Memtap) Resilience() memserver.ResilienceStats {
	if rc, ok := m.client.(interface {
		ResilienceStats() memserver.ResilienceStats
	}); ok {
		return rc.ResilienceStats()
	}
	return memserver.ResilienceStats{}
}

// HoldFetch and ReleaseFetch implement hypervisor.FetchHolder: between
// the first hold of a PFN and the last release, every FetchPage for it
// is served by one successful remote fetch. A PartialVM holds from before
// its look at the present bit until its install has returned, which is
// what keeps a fault that saw "absent" while another's fetched page was
// on its way into the VM from fetching that page a second time.
func (m *Memtap) HoldFetch(pfn pagestore.PFN) {
	m.sfMu.Lock()
	m.holdLocked(pfn)
	m.sfMu.Unlock()
}

// holdLocked takes one hold on pfn's flight, opening it if need be, and
// returns it. The caller holds sfMu.
func (m *Memtap) holdLocked(pfn pagestore.PFN) *flight {
	f := m.inflight[pfn]
	if f == nil {
		f = &flight{}
		m.inflight[pfn] = f
	}
	f.holds++
	return f
}

// ReleaseFetch undoes one HoldFetch.
func (m *Memtap) ReleaseFetch(pfn pagestore.PFN) {
	m.sfMu.Lock()
	if f := m.inflight[pfn]; f.holds > 1 {
		f.holds--
	} else {
		delete(m.inflight, pfn)
	}
	m.sfMu.Unlock()
}

// FetchPage implements hypervisor.Pager. Faults on the same PFN are
// deduplicated single-flight: the first caller (the leader) performs the
// remote fetch; the rest wait and share its page and error. FetchPage
// holds the PFN's flight for its own duration, so concurrent callers
// always coalesce and a later one fetches afresh unless a caller's own
// HoldFetch has kept the flight open (the page may have been evicted
// again). A failed fetch is shared with the waiters it already has and
// then forgotten.
// Only the leader's fetch is counted in Faults/FetchedBytes — the page is
// installed once, so the accounting stays exact — while coalesced waiters
// tick the dedup counter. Each leader fault feeds the live latency
// histogram and (sampled) a telemetry.FaultPath span with the stage
// breakdown fault → tap_lookup → remote_fetch → decompress → resolve.
func (m *Memtap) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	if id != m.vmid {
		return nil, fmt.Errorf("memtap: configured for vm %04d, asked for %04d", m.vmid, id)
	}
	m.sfMu.Lock()
	f := m.holdLocked(pfn)
	defer m.ReleaseFetch(pfn)
	if c := f.call; c != nil {
		m.sfMu.Unlock()
		m.dedup.Add(1)
		tel.dedup.Inc()
		c.done.Wait()
		return c.page, c.err
	}
	c := new(fetchCall)
	c.done.Add(1)
	f.call = c
	m.sfMu.Unlock()
	tel.inflight.Inc()

	c.page, c.err = m.fetchRemote(id, pfn)

	tel.inflight.Dec()
	if c.err != nil {
		m.sfMu.Lock()
		f.call = nil
		m.sfMu.Unlock()
	}
	c.done.Done()
	return c.page, c.err
}

// fetchRemote performs one remote page fetch with tracing and accounting
// (the single-flight leader's path). Every fault feeds the counters and
// the latency histogram; only a fault the tracer samples in asks the
// client for the wire/decompress split, and a sampled-out one reads the
// clock no more than the histogram needs.
func (m *Memtap) fetchRemote(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	start := time.Now()
	span := telemetry.FaultPath.Start("fault")
	span.Stage("tap_lookup")

	var page []byte
	var err error
	if sf, ok := m.client.(stagedFetcher); ok && span != nil {
		var wire, decompress time.Duration
		page, wire, decompress, err = sf.GetPageStaged(id, pfn)
		span.StageDuration("remote_fetch", wire)
		span.StageDuration("decompress", decompress)
		span.Mark()
	} else {
		page, err = m.client.GetPage(id, pfn)
		span.Stage("remote_fetch")
	}
	if err != nil {
		tel.faultErrors.Inc()
		span.End()
		if errors.Is(err, memserver.ErrCircuitOpen) || m.Degraded() {
			return nil, fmt.Errorf("%w: %w", ErrDegraded, err)
		}
		return nil, err
	}
	m.faults.Add(1)
	m.bytes.Add(int64(units.PageSize))
	m.noteFault(pfn)
	elapsed := time.Since(start).Seconds()
	m.latMu.Lock()
	m.latency.Add(elapsed)
	m.latMu.Unlock()
	tel.faults.Inc()
	tel.bytes.Add(float64(units.PageSize))
	tel.latency.Observe(elapsed)
	span.Stage("resolve")
	span.End()
	return page, nil
}

// Faults returns the number of remote fetches that serviced faults
// (coalesced waiters are not double-counted; see DedupedFaults).
func (m *Memtap) Faults() int64 { return m.faults.Load() }

// DedupedFaults returns how many concurrent faults were coalesced onto an
// already in-flight fetch of the same PFN.
func (m *Memtap) DedupedFaults() int64 { return m.dedup.Load() }

// FetchedBytes returns the uncompressed bytes actually installed into the
// VM (on-demand faults plus prefetch installs; pages the prefetcher lost
// a race for are not counted).
func (m *Memtap) FetchedBytes() units.Bytes { return units.Bytes(m.bytes.Load()) }

// MeanLatency returns the mean fault-service latency.
func (m *Memtap) MeanLatency() time.Duration {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	return time.Duration(m.latency.Mean() * float64(time.Second))
}

// Close releases the connection to the memory server.
func (m *Memtap) Close() error { return m.client.Close() }

// prefetchWorkers is how many batches PrefetchRemaining keeps in flight
// over lanes connections on procs CPUs: one per lane, so that every
// lane of a pool carries a batch, and a second per lane where a CPU is
// free to decode one batch while the lane carries the next. Two a lane
// is the measured rule: on one lane at 2 CPUs two workers convert about
// 1.8x the pages a second of one, three read the same and four worse
// (DESIGN.md §9, "Pipelined prefetch"). It also bounds what a demand
// fault on a converting VM queues behind: two exchanges a lane, however
// many cores the host has.
func prefetchWorkers(lanes, procs int) int {
	return max(lanes, min(procs, 2*lanes))
}

// prefetchRun is the shared state of one PrefetchRemaining call: the
// batch each worker has in flight (its claim, so that no two workers
// fetch the same page), a linear scan cursor, and the error latch that
// aborts every worker.
type prefetchRun struct {
	m  *Memtap
	vm *hypervisor.PartialVM

	batch int

	mu     sync.Mutex
	held   [][]pagestore.PFN // held[w]: worker w's batch in flight, ascending; nil between batches
	cursor pagestore.PFN

	errMu    sync.Mutex
	firstErr error
}

// fail latches the first error; every worker checks failed() and drains.
func (r *prefetchRun) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

func (r *prefetchRun) failed() bool {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr != nil
}

// heldAround returns the batch in flight whose range holds pfn, or nil.
// A batch is claimed as every absent page from where its scan started
// that no other batch in flight holds, so no page in its range is absent
// and unclaimed while it is in flight (pages only ever become present):
// a scan that meets one resumes past its last page. Callers hold r.mu.
func (r *prefetchRun) heldAround(pfn pagestore.PFN) []pagestore.PFN {
	for _, b := range r.held {
		if len(b) > 0 && b[0] <= pfn && pfn <= b[len(b)-1] {
			return b
		}
	}
	return nil
}

// collect claims for worker w up to max absent pages no batch in flight
// holds, in ascending order from from. Callers hold r.mu.
func (r *prefetchRun) collect(w int, from pagestore.PFN, max int) []pagestore.PFN {
	var out []pagestore.PFN
	for len(out) < max {
		cand := r.vm.AbsentPagesFrom(from, max-len(out))
		if len(cand) == 0 {
			break
		}
		from = cand[len(cand)-1] + 1
		for _, pfn := range cand {
			if b := r.heldAround(pfn); b != nil {
				from = b[len(b)-1] + 1
				break
			}
			if out == nil {
				out = make([]pagestore.PFN, 0, max)
			}
			out = append(out, pfn)
		}
	}
	r.held[w] = out
	return out
}

// nextBatch claims worker w's next batch of absent pages. Recent guest
// faults redirect the scan: a fault at PFN p means the guest is working
// near p, so the pages right after it are the likeliest next on-demand
// misses and prefetching them first turns would-be faults into installs.
// With no hints pending, the scan proceeds from the ascending cursor.
// Every absent page behind the cursor is in a batch in flight, so nil
// means the rest belongs to other workers — this one is done.
func (r *prefetchRun) nextBatch(w int) []pagestore.PFN {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		hint, ok := r.m.takeFaultHint()
		if !ok {
			break
		}
		if pfns := r.collect(w, hint, r.batch); pfns != nil {
			r.m.reorders.Add(1)
			tel.reorder.Inc()
			return pfns
		}
	}
	pfns := r.collect(w, r.cursor, r.batch)
	if pfns != nil {
		r.cursor = pfns[len(pfns)-1] + 1
	}
	return pfns
}

// unclaim releases worker w's batch (its pages are present now, or the
// run is aborting on its error).
func (r *prefetchRun) unclaim(w int) {
	r.mu.Lock()
	r.held[w] = nil
	r.mu.Unlock()
}

// PrefetchRemaining streams every absent page of the partial VM from the
// memory server in batches, converting it into a full VM (§4.4.4: when a
// partial VM becomes active, bring the remaining pages over rather than
// let the user suffer on-demand latency). Pages the guest faults or
// writes concurrently are left untouched. It returns the number of pages
// installed.
//
// Batch ordering is adaptive: the fault path publishes recently faulted
// PFNs into a small ring, and the prefetcher redirects its scan to the
// pages right after the guest's latest faults (counted by
// oasis_memtap_prefetch_reorder_total) before falling back to an
// ascending sweep. That scan feeds prefetchWorkers continuously running
// workers — each claims a batch, fetches it and decodes and installs it
// while the others are on the wire, with no barrier between rounds. Over
// one connection the exchanges queue on it, so each batch's decode
// overlaps the next batch's round trip; over a pool the batches also
// overlap on the network. On one connection at GOMAXPROCS 1 the batches
// run one at a time on the caller's goroutine. Every worker count
// installs the same set of pages.
func (m *Memtap) PrefetchRemaining(vm *hypervisor.PartialVM, batch int) (int, error) {
	if batch <= 0 {
		batch = 512
	}
	// A client shared with other VMs converts over a connection of this VM's own.
	client := m.client
	if c, ok := client.(interface{ Convert() (PageClient, error) }); ok {
		own, err := c.Convert()
		if err != nil {
			return 0, fmt.Errorf("memtap: prefetch vm %04d: %w", m.vmid, err)
		}
		defer own.Close()
		client = own
	}
	workers := prefetchWorkers(m.lanes, runtime.GOMAXPROCS(0))
	r := &prefetchRun{m: m, vm: vm, batch: batch, held: make([][]pagestore.PFN, workers)}

	var installed atomic.Int64
	work := func(w int) {
		for !r.failed() {
			pfns := r.nextBatch(w)
			if pfns == nil {
				return
			}
			pages, err := client.GetPages(m.vmid, pfns)
			tel.batches.Inc()
			if err != nil {
				r.unclaim(w)
				if errors.Is(err, memserver.ErrCircuitOpen) || m.Degraded() {
					err = fmt.Errorf("%w: %w", ErrDegraded, err)
				}
				r.fail(fmt.Errorf("memtap: prefetch vm %04d: %w", m.vmid, err))
				return
			}
			n, err := m.installBatch(vm, pfns, pages)
			installed.Add(int64(n))
			r.unclaim(w)
			if err != nil {
				r.fail(err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	r.errMu.Lock()
	err := r.firstErr
	r.errMu.Unlock()
	return int(installed.Load()), err
}

// installBatch installs one fetched batch into the VM in one
// InstallPages call, handing it the client's pages to keep, and counts
// only the pages actually installed (installs that lose the race to a
// concurrent fault or guest write are dropped from the accounting).
func (m *Memtap) installBatch(vm *hypervisor.PartialVM, pfns []pagestore.PFN, pages map[pagestore.PFN][]byte) (int, error) {
	ordered := make([][]byte, len(pfns))
	zeros := 0
	for i, pfn := range pfns {
		page, ok := pages[pfn]
		if !ok {
			return 0, fmt.Errorf("memtap: prefetch vm %04d: server omitted pfn %d", m.vmid, pfn)
		}
		if pagestore.IsSharedZero(page) {
			// The decoder handed back its shared zero page: install the
			// elided form instead of scanning 4 KiB of zeros.
			page = nil
			zeros++
		}
		ordered[i] = page
	}
	m.zeroElided.Add(int64(zeros))
	tel.zeroElided.Add(float64(zeros))
	installed, err := vm.InstallPages(pfns, ordered)
	batchBytes := units.Bytes(installed) * units.PageSize
	m.bytes.Add(int64(batchBytes))
	tel.bytes.Add(float64(batchBytes))
	tel.prefetched.Add(float64(installed))
	return installed, err
}
