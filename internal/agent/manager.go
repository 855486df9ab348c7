package agent

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/wire"
)

// Manager is the functional cluster manager of §4.1: it owns the host
// roster, creates VMs on hosts with room, and orders migrations and power
// transitions through the host agents' RPC interfaces.
//
// It is one roster and one fan-out (DESIGN.md §15): a map of registered
// hosts under one lock, and a bounded-concurrency Agent.Stats fan-out for
// the decisions that need a fleet-wide view (CreateVM, DegradedVMs,
// RefreshStats), which costs one parallel sweep instead of one
// synchronous RPC per host.
//
// Lifecycle: every operation that may touch a host's RPC client runs
// inside do(), which holds the lifecycle read-lock for its whole
// duration. Close takes the write side, so it refuses new operations and
// waits for in-flight RPCs to drain before closing any client — no
// goroutine can observe a client after Close.
type Manager struct {
	// life is the lifecycle lock; closed is set under its write side.
	life   sync.RWMutex
	closed bool

	// mu guards hosts, the roster.
	mu    sync.RWMutex
	hosts map[string]*hostEntry

	// fanLimit bounds one fan-out's concurrent RPCs; 0 means
	// defaultFanOut.
	fanLimit int
}

// hostEntry is one registered host.
type hostEntry struct {
	name   string
	addr   string
	client *wire.Client
}

// defaultFanOut bounds the concurrent RPCs of one fan-out. 32 keeps a
// large sweep from opening one read per host at once while still hiding
// the per-host round-trip latency; SetFanOutLimit overrides it.
const defaultFanOut = 32

// errClosed is what every operation returns once Close has begun.
var errClosed = fmt.Errorf("manager: closed")

// managerTelemetry is the control plane's oasis_manager_* instrument
// set. Process-global (registration is idempotent): a process hosting
// several managers — tests, the stress bench — reports their combined
// activity, exactly like the pool/shard client metrics.
type managerTelemetry struct {
	hosts        *telemetry.Gauge
	fanouts      *telemetry.Counter
	fanoutErrors *telemetry.Counter
	fanoutSecs   *telemetry.Histogram
	statsRPCs    *telemetry.Counter
}

var managerTel = func() *managerTelemetry {
	r := telemetry.Default
	return &managerTelemetry{
		hosts: r.Gauge("oasis_manager_hosts",
			"Hosts currently registered across this process's managers."),
		fanouts: r.Counter("oasis_manager_fanouts_total",
			"Batched RPC fan-outs issued (stats sweeps, placement scans)."),
		fanoutErrors: r.Counter("oasis_manager_fanout_errors_total",
			"Per-host errors joined into fan-out results."),
		fanoutSecs: r.Histogram("oasis_manager_fanout_seconds",
			"Wall time of one full fan-out (all hosts, bounded concurrency).",
			telemetry.ExpBuckets(1e-4, 2, 18)),
		statsRPCs: r.Counter("oasis_manager_stats_refreshes_total",
			"Agent.Stats RPCs issued by the manager."),
	}
}()

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{hosts: make(map[string]*hostEntry)}
}

// SetFanOutLimit bounds the concurrent RPCs of fleet-wide sweeps
// (CreateVM's placement scan, DegradedVMs); n <= 0 restores the
// default. Call before concurrent use.
func (m *Manager) SetFanOutLimit(n int) { m.fanLimit = n }

// do runs fn under the lifecycle read-lock. Close blocks until every
// in-flight do returns, so fn may use clients freely.
func (m *Manager) do(fn func() error) error {
	m.life.RLock()
	defer m.life.RUnlock()
	if m.closed {
		return errClosed
	}
	return fn()
}

// get looks up a host entry.
func (m *Manager) get(name string) (*hostEntry, error) {
	m.mu.RLock()
	e, ok := m.hosts[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("manager: unknown host %s", name)
	}
	return e, nil
}

// roster returns every registered entry sorted by name, so fan-outs
// visit hosts (and join their errors) in a deterministic order.
func (m *Manager) roster() []*hostEntry {
	m.mu.RLock()
	out := make([]*hostEntry, 0, len(m.hosts))
	for _, e := range m.hosts {
		out = append(out, e)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// AddHost registers a host agent by RPC address.
func (m *Manager) AddHost(name, addr string) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return fmt.Errorf("manager: add host %s: %w", name, err)
	}
	err = m.do(func() error {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := m.hosts[name]; ok {
			return fmt.Errorf("manager: host %s already registered", name)
		}
		m.hosts[name] = &hostEntry{name: name, addr: addr, client: c}
		managerTel.hosts.Add(1)
		return nil
	})
	if err != nil {
		c.Close()
	}
	return err
}

// Close releases all agent connections. It refuses new operations and
// waits for in-flight ones to finish, so no RPC client is used after
// its Close. Idempotent.
func (m *Manager) Close() {
	m.life.Lock()
	defer m.life.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.mu.Lock()
	for _, e := range m.hosts {
		e.client.Close()
	}
	managerTel.hosts.Add(-float64(len(m.hosts)))
	m.hosts = make(map[string]*hostEntry)
	m.mu.Unlock()
}

// Hosts returns the registered host names, sorted.
func (m *Manager) Hosts() []string {
	entries := m.roster()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.name
	}
	return out
}

// stats issues one Agent.Stats RPC.
func (e *hostEntry) stats() (Stats, error) {
	var st Stats
	managerTel.statsRPCs.Inc()
	if err := e.client.Call("Agent.Stats", nil, &st); err != nil {
		return Stats{}, fmt.Errorf("manager: stats %s: %w", e.name, err)
	}
	return st, nil
}

// HostScan is one host's slot in a fleet-wide stats sweep.
type HostScan struct {
	// Name is the host's registered name.
	Name string
	// Stats is the host's reply; valid when Err is nil.
	Stats Stats
	// Err is the per-host failure, if any.
	Err error
}

// scanStats fetches every registered host's stats from a pool of at
// most the fan-out limit's goroutines and returns the results in
// host-name order, each failure in its host's slot. Callers hold do().
func (m *Manager) scanStats() []HostScan {
	entries := m.roster()
	n := len(entries)
	out := make([]HostScan, n)
	if n == 0 {
		return out
	}
	limit := m.fanLimit
	if limit <= 0 {
		limit = defaultFanOut
	}
	managerTel.fanouts.Inc()
	t0 := time.Now()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < min(limit, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				st, err := entries[i].stats()
				out[i] = HostScan{Name: entries[i].name, Stats: st, Err: err}
			}
		}()
	}
	wg.Wait()
	managerTel.fanoutSecs.Observe(time.Since(t0).Seconds())
	for _, sc := range out {
		if sc.Err != nil {
			managerTel.fanoutErrors.Inc()
		}
	}
	return out
}

// CreateVM creates a VM on the host with the fewest resident VMs (the
// manager "identifies a host with sufficient resources", §4.1). The
// placement scan is one bounded-concurrency stats fan-out over the
// fleet; when no powered host is found the per-host scan errors come
// back joined, so an all-hosts-unreachable fleet is distinguishable
// from an all-suspended one.
func (m *Manager) CreateVM(args CreateVMArgs) (hostName string, err error) {
	err = m.do(func() error {
		scans := m.scanStats()
		best, bestCount := "", int(^uint(0)>>1)
		var scanErrs []error
		for _, sc := range scans {
			if sc.Err != nil {
				scanErrs = append(scanErrs, sc.Err)
				continue
			}
			if sc.Stats.Suspended {
				continue
			}
			if len(sc.Stats.VMs) < bestCount {
				best, bestCount = sc.Name, len(sc.Stats.VMs)
			}
		}
		if best == "" {
			if joined := errors.Join(scanErrs...); joined != nil {
				return fmt.Errorf("manager: no powered host available (%d/%d scans failed): %w",
					len(scanErrs), len(scans), joined)
			}
			return fmt.Errorf("manager: no powered host available")
		}
		e, err := m.get(best)
		if err != nil {
			return err
		}
		if err := e.client.Call("Agent.CreateVM", args, nil); err != nil {
			return err
		}
		hostName = best
		return nil
	})
	return hostName, err
}

// CreateVMOn creates a VM on a specific host.
func (m *Manager) CreateVMOn(hostName string, args CreateVMArgs) error {
	return m.call(hostName, "Agent.CreateVM", args, nil)
}

// host returns the roster entry for a host — a white-box helper for
// tests that speak raw RPC past the manager's API. Manager methods use
// call() instead, which holds the lifecycle lock across the RPC.
func (m *Manager) host(name string) (*hostEntry, error) {
	var e *hostEntry
	err := m.do(func() (err error) {
		e, err = m.get(name)
		return err
	})
	return e, err
}

// call performs one payload-free RPC against a registered host under
// the lifecycle lock.
func (m *Manager) call(hostName, method string, args, out any) error {
	_, err := m.callPayload(hostName, method, args, nil, out)
	return err
}

// callPayload is call with a byte payload each way.
func (m *Manager) callPayload(hostName, method string, args any, payload []byte, out any) (reply []byte, err error) {
	err = m.do(func() error {
		e, err := m.get(hostName)
		if err != nil {
			return err
		}
		reply, err = e.client.CallPayload(method, args, payload, out)
		return err
	})
	return reply, err
}

// between resolves two registered hosts under the lifecycle lock and
// runs fn on them — the shape of every order that moves a VM: call the
// host it runs on with the other one's RPC address.
func (m *Manager) between(on, other string, fn func(on, other *hostEntry) error) error {
	return m.do(func() error {
		a, err := m.get(on)
		if err != nil {
			return err
		}
		b, err := m.get(other)
		if err != nil {
			return err
		}
		return fn(a, b)
	})
}

// PartialMigrate consolidates an idle VM from src to dst.
func (m *Manager) PartialMigrate(id pagestore.VMID, src, dst string) error {
	return m.between(src, dst, func(s, d *hostEntry) error {
		return s.client.Call("Agent.PartialMigrate", MigrateArgs{VMID: id, Dest: d.addr}, nil)
	})
}

// FullMigrate moves a VM in full from src to dst; dst becomes the owner.
func (m *Manager) FullMigrate(id pagestore.VMID, src, dst string) error {
	return m.between(src, dst, func(s, d *hostEntry) error {
		return s.client.Call("Agent.FullMigrate", MigrateArgs{VMID: id, Dest: d.addr}, nil)
	})
}

// AdoptVM converts the partial VM running on hostName into a full VM
// there, owned there (§3.2 convert in place): the host fetches every page
// it lacks from the owner's memory server. The owner keeps its retained
// copy until a full migration home replaces it.
func (m *Manager) AdoptVM(id pagestore.VMID, hostName string) error {
	return m.call(hostName, "Agent.AdoptVM", vmArgs{VMID: id}, nil)
}

// Reintegrate returns a partial VM running on consHost to its owner.
func (m *Manager) Reintegrate(id pagestore.VMID, consHost, owner string) error {
	return m.between(consHost, owner, func(c, o *hostEntry) error {
		return c.client.Call("Agent.Reintegrate", MigrateArgs{VMID: id, Dest: o.addr}, nil)
	})
}

// RecoverDegraded force-promotes a degraded partial VM from consHost
// back to its owner (§4.4.4 degradation ladder): the owner is woken
// first (it was likely suspended — that is why the VM was consolidated),
// then the consolidation host pushes the VM's dirty state home, where it
// merges with the retained last-good image and the VM resumes as a full
// VM. Set force to promote a VM whose memtap does not (yet) report
// degraded.
func (m *Manager) RecoverDegraded(id pagestore.VMID, consHost, owner string, force bool) error {
	return m.between(consHost, owner, func(c, o *hostEntry) error {
		if err := o.client.Call("Agent.Wake", nil, nil); err != nil {
			return fmt.Errorf("manager: wake owner %s for degraded vm %04d: %w", owner, id, err)
		}
		return c.client.Call("Agent.RecoverDegraded", RecoverArgs{VMID: id, Dest: o.addr, Force: force}, nil)
	})
}

// DegradedVMs sweeps every host's stats with one bounded fan-out and
// returns the degraded (and not yet quarantined) partial VMs as
// (vmid → consolidation host). The sweep is best-effort: hosts that are
// themselves unreachable are skipped — it runs precisely when parts of
// the cluster are failing.
func (m *Manager) DegradedVMs() (map[pagestore.VMID]string, error) {
	out := make(map[pagestore.VMID]string)
	err := m.do(func() error {
		for _, sc := range m.scanStats() {
			if sc.Err != nil {
				continue
			}
			for _, vi := range sc.Stats.VMs {
				if vi.Degraded && !vi.Quarantined {
					out[vi.VMID] = sc.Name
				}
			}
		}
		return nil
	})
	return out, err
}

// Suspend puts a host into (simulated) S3; it fails if VMs still run
// there. The host's memory server keeps serving pages.
func (m *Manager) Suspend(name string) error {
	return m.call(name, "Agent.Suspend", nil, nil)
}

// Wake brings a suspended host back (the Wake-on-LAN of §4.1).
func (m *Manager) Wake(name string) error {
	return m.call(name, "Agent.Wake", nil, nil)
}

// HostStats fetches one agent's statistics.
func (m *Manager) HostStats(name string) (Stats, error) {
	var st Stats
	err := m.do(func() error {
		e, err := m.get(name)
		if err != nil {
			return err
		}
		st, err = e.stats()
		return err
	})
	return st, err
}

// RefreshStats sweeps the whole fleet's stats with one bounded fan-out
// and returns the per-host scan results in host-name order. Unreachable
// hosts carry their error in the scan slot; the error return is non-nil
// only when the manager is closed.
func (m *Manager) RefreshStats() ([]HostScan, error) {
	var scans []HostScan
	err := m.do(func() error {
		scans = m.scanStats()
		return nil
	})
	return scans, err
}

// WritePage writes guest memory through a host agent (workload
// emulation for examples and tests).
func (m *Manager) WritePage(hostName string, id pagestore.VMID, pfn pagestore.PFN, data []byte) error {
	_, err := m.callPayload(hostName, "Agent.WritePage", PageArgs{VMID: id, PFN: pfn}, data, nil)
	return err
}

// ReadPage reads guest memory through a host agent; on a partial VM this
// faults the page in from the memory server.
func (m *Manager) ReadPage(hostName string, id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	return m.callPayload(hostName, "Agent.ReadPage", PageArgs{VMID: id, PFN: pfn}, nil, nil)
}
