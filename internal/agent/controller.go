package agent

import (
	"fmt"
	"sort"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Controller drives a fleet of real host agents with the consolidation
// loop of §3.1, in its OnlyPartial-with-full-support form: at every step
// it consolidates the idle VMs of vacatable home hosts onto consolidation
// hosts with partial migration, suspends emptied homes, wakes homes and
// reintegrates when users return, and keeps VM location/ownership
// bookkeeping. It is the functional (wire-level) counterpart of the
// simulator's cluster manager — useful for end-to-end integration tests
// and small live deployments, not for 900-VM scale.
type Controller struct {
	m     *Manager
	homes []string
	cons  []string

	// vmHome is the owner host; vmLoc is where the VM currently runs. The
	// controller only migrates partially, so a VM away from its home is a
	// partial VM.
	vmHome map[pagestore.VMID]string
	vmLoc  map[pagestore.VMID]string

	suspended map[string]bool
}

// NewController wires a controller to a manager and its host roster.
func NewController(m *Manager, homes, cons []string) *Controller {
	return &Controller{
		m:         m,
		homes:     append([]string(nil), homes...),
		cons:      append([]string(nil), cons...),
		vmHome:    make(map[pagestore.VMID]string),
		vmLoc:     make(map[pagestore.VMID]string),
		suspended: make(map[string]bool),
	}
}

// CreateVM places a new VM on the home host with the fewest VMs.
func (c *Controller) CreateVM(id pagestore.VMID, name string, alloc units.Bytes) (string, error) {
	best, bestN := "", int(^uint(0)>>1)
	for _, h := range c.homes {
		if c.suspended[h] {
			continue
		}
		n := 0
		for _, loc := range c.vmHome {
			if loc == h {
				n++
			}
		}
		if n < bestN {
			best, bestN = h, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("controller: no powered home host")
	}
	if err := c.m.CreateVMOn(best, CreateVMArgs{VMID: id, Name: name, Alloc: alloc, VCPUs: 1}); err != nil {
		return "", err
	}
	c.vmHome[id] = best
	c.vmLoc[id] = best
	return best, nil
}

// Home returns the VM's owner host.
func (c *Controller) Home(id pagestore.VMID) string { return c.vmHome[id] }

// Location returns where the VM currently runs.
func (c *Controller) Location(id pagestore.VMID) string { return c.vmLoc[id] }

// Partial reports whether the VM runs as a partial VM.
func (c *Controller) Partial(id pagestore.VMID) bool { return c.vmLoc[id] != c.vmHome[id] }

// Suspended reports whether the controller believes host is asleep.
func (c *Controller) Suspended(host string) bool { return c.suspended[host] }

// vmsHomedOn lists VMs owned by host, sorted for determinism.
func (c *Controller) vmsHomedOn(host string) []pagestore.VMID {
	var out []pagestore.VMID
	for id, h := range c.vmHome {
		if h == host {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Step runs one planning interval against live agents. active reports
// each VM's activity for the interval; VMs missing from the map are
// treated as idle.
func (c *Controller) Step(active map[pagestore.VMID]bool) error {
	// 1. Activations of consolidated partial VMs: wake the home and
	// return all of its VMs (§3.2 Default return).
	for id, on := range active {
		if !on || !c.Partial(id) {
			continue
		}
		home := c.vmHome[id]
		if c.suspended[home] {
			if err := c.m.Wake(home); err != nil {
				return fmt.Errorf("controller: wake %s: %w", home, err)
			}
			c.suspended[home] = false
		}
		for _, sib := range c.vmsHomedOn(home) {
			if !c.Partial(sib) {
				continue
			}
			if err := c.m.Reintegrate(sib, c.vmLoc[sib], home); err != nil {
				return fmt.Errorf("controller: reintegrate %04d: %w", sib, err)
			}
			c.vmLoc[sib] = home
		}
	}

	// 2. Vacate home hosts whose VMs are all idle: consolidate each VM
	// partially onto the least-loaded consolidation host, then suspend.
	for _, home := range c.homes {
		if c.suspended[home] {
			continue
		}
		ids := c.vmsHomedOn(home)
		if len(ids) == 0 {
			continue
		}
		vacatable := true
		for _, id := range ids {
			if active[id] || c.vmLoc[id] != home {
				vacatable = false
				break
			}
		}
		if !vacatable {
			continue
		}
		for _, id := range ids {
			dest := c.pickCons()
			if dest == "" {
				return fmt.Errorf("controller: no consolidation host")
			}
			if err := c.m.PartialMigrate(id, home, dest); err != nil {
				return fmt.Errorf("controller: partial migrate %04d: %w", id, err)
			}
			c.vmLoc[id] = dest
		}
		if err := c.m.Suspend(home); err != nil {
			return fmt.Errorf("controller: suspend %s: %w", home, err)
		}
		c.suspended[home] = true
	}
	return nil
}

// pickCons returns the consolidation host with the fewest partial VMs.
func (c *Controller) pickCons() string {
	best, bestN := "", int(^uint(0)>>1)
	for _, h := range c.cons {
		n := 0
		for id, loc := range c.vmLoc {
			if loc == h && c.Partial(id) {
				n++
			}
		}
		if n < bestN {
			best, bestN = h, n
		}
	}
	return best
}
