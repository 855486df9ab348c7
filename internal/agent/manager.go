package agent

import (
	"errors"
	"fmt"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/wire"
)

// Manager is the functional cluster manager of §4.1: it owns the host
// roster, creates VMs on hosts with room, and orders migrations and power
// transitions through the host agents' RPC interfaces.
//
// It is built from two layers (DESIGN.md §15): a sharded host registry
// with cached, epoch-stamped host stats (registry.go — the state store),
// and a batched asynchronous RPC fan-out with bounded concurrency and
// per-host single-flight stats refresh (actuate.go — the actuation
// layer). Fleet-wide decisions (CreateVM, DegradedVMs) cost one parallel
// sweep instead of one synchronous RPC per host, and concurrent
// decisions share in-flight refreshes instead of stampeding the agents.
type Manager struct {
	reg *registry

	// fanLimit bounds one fan-out's concurrent RPCs; 0 means
	// defaultFanOut.
	fanLimit int
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{reg: newRegistry()}
}

// SetFanOutLimit bounds the concurrent RPCs of fleet-wide sweeps
// (CreateVM's placement scan, DegradedVMs); n <= 0 restores the
// default. Call before concurrent use.
func (m *Manager) SetFanOutLimit(n int) { m.fanLimit = n }

func (m *Manager) fanOutLimit() int {
	if m.fanLimit > 0 {
		return m.fanLimit
	}
	return defaultFanOut
}

// AddHost registers a host agent by RPC address.
func (m *Manager) AddHost(name, addr string) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return fmt.Errorf("manager: add host %s: %w", name, err)
	}
	e := &hostEntry{name: name, addr: addr, client: c}
	err = m.reg.do(func() error { return m.reg.add(e) })
	if err != nil {
		c.Close()
		return err
	}
	return nil
}

// Close releases all agent connections. It refuses new operations and
// waits for in-flight ones to finish, so no RPC client is used after
// its Close.
func (m *Manager) Close() { m.reg.close() }

// Hosts returns the registered host names, sorted.
func (m *Manager) Hosts() []string {
	entries := m.reg.snapshot()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.name
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
	err = m.reg.do(func() error {
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
		e, err := m.reg.get(best)
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

// host returns the registry entry for a host — a white-box helper for
// tests that speak raw RPC past the manager's API. Manager methods use
// call() instead, which holds the lifecycle lock across the RPC.
func (m *Manager) host(name string) (*hostEntry, error) {
	var e *hostEntry
	err := m.reg.do(func() (err error) {
		e, err = m.reg.get(name)
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
	err = m.reg.do(func() error {
		e, err := m.reg.get(hostName)
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
	return m.reg.do(func() error {
		a, err := m.reg.get(on)
		if err != nil {
			return err
		}
		b, err := m.reg.get(other)
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
	err := m.reg.do(func() error {
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

// HostStats fetches one agent's statistics. The fetch goes through the
// registry's single-flight refresh, so concurrent callers (and
// concurrent fleet sweeps) share one RPC and its reply; the registry's
// cache is updated as a side effect.
func (m *Manager) HostStats(name string) (Stats, error) {
	var st Stats
	err := m.reg.do(func() error {
		e, err := m.reg.get(name)
		if err != nil {
			return err
		}
		st, _, err = e.refreshStats()
		return err
	})
	if err != nil {
		return Stats{}, err
	}
	return st, nil
}

// HostStatsCached returns the registry's cached stats for a host
// without touching the wire, with the refresh epoch and fetch time so
// the caller can judge staleness. ok is false if the host has never
// answered a refresh (or is unknown).
func (m *Manager) HostStatsCached(name string) (st Stats, epoch uint64, fetchedAt time.Time, ok bool) {
	err := m.reg.do(func() error {
		e, err := m.reg.get(name)
		if err != nil {
			return err
		}
		st, epoch, fetchedAt, ok = e.cachedStats()
		return nil
	})
	if err != nil {
		return Stats{}, 0, time.Time{}, false
	}
	return st, epoch, fetchedAt, ok
}

// RefreshStats sweeps the whole fleet's stats with one bounded
// fan-out, updating every host's cache, and returns the per-host scan
// results in host-name order. Unreachable hosts carry their error in
// the scan slot; the error return is non-nil only when the manager is
// closed.
func (m *Manager) RefreshStats() ([]HostScan, error) {
	var scans []HostScan
	err := m.reg.do(func() error {
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
