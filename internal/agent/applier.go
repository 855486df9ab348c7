package agent

import (
	"fmt"
	"sort"

	"oasis/internal/cluster"
	"oasis/internal/units"
)

// Applier drives live agents with the simulator's consolidation policy:
// it steps a cluster.Cluster one planning interval at a time and replays
// each action the interval committed — one decision-log event — as
// Manager calls, in log order. The cluster owns the plan and the agents
// own VM lifecycle; the applier keeps nothing but its place in the log
// (the layering of hcsshim's VM package under its orchestrator).
type Applier struct {
	m    *Manager
	c    *cluster.Cluster
	next int // Seq of the first event not yet applied
}

// NewApplier mirrors a fresh cluster's initial state onto the agents,
// which m must know by the cluster's host names: each of c.VMs is
// created on its host with alloc bytes of memory, and each host the
// cluster starts asleep is suspended. The cluster must keep a decision
// log large enough for one interval's events.
func NewApplier(m *Manager, c *cluster.Cluster, alloc units.Bytes) (*Applier, error) {
	if c.Cfg.EventLogSize <= 0 {
		return nil, fmt.Errorf("applier: the cluster keeps no decision log")
	}
	for _, v := range c.VMs {
		args := CreateVMArgs{VMID: v.ID, Name: v.Name, Alloc: alloc, VCPUs: v.VCPUs}
		if err := m.CreateVMOn(c.Hosts[v.Host].Name, args); err != nil {
			return nil, err
		}
	}
	for _, h := range c.Hosts {
		if h.Sleeping() {
			if err := m.Suspend(h.Name); err != nil {
				return nil, err
			}
		}
	}
	return &Applier{m: m, c: c}, nil
}

// Step plans one interval — Tick with the interval's activity bits, then
// the clock to the next boundary — and applies the events it logged, in
// order. It returns the events applied; the first refused call stops it,
// with an error naming the event, as does a log that dropped entries.
func (a *Applier) Step(active []bool) ([]cluster.Event, error) {
	c := a.c
	if err := c.Tick(active); err != nil {
		return nil, err
	}
	c.Sim.RunUntil(c.Sim.Now().Add(c.Cfg.PlanEvery))
	evs := c.Events()
	evs = evs[sort.Search(len(evs), func(i int) bool { return evs[i].Seq >= a.next }):]
	if len(evs) > 0 && evs[0].Seq != a.next {
		return nil, fmt.Errorf("applier: the decision log dropped events %d to %d", a.next, evs[0].Seq-1)
	}
	for i, e := range evs {
		if err := a.apply(e); err != nil {
			return evs[:i], fmt.Errorf("applier: %v: %w", e, err)
		}
		a.next = e.Seq + 1
	}
	return evs, nil
}

// apply carries out one event on the agents; annotations need nothing.
// A new-home move is refused before any agent is called: the agents
// would take its destination for the VM's owner while the planner keeps
// the old home, and a later reintegration would merge dirty pages into
// that home's stale retained copy.
func (a *Applier) apply(e cluster.Event) error {
	if e.Kind == cluster.EvNewHome {
		return fmt.Errorf("a %s move is not supported: the planner keeps vm %04d's home where it was", e.Kind, e.VM)
	}
	from, to := a.c.Hosts[e.From].Name, a.c.Hosts[e.Host].Name
	switch e.Kind {
	case cluster.EvWake:
		return a.m.Wake(to)
	case cluster.EvSuspend:
		return a.m.Suspend(to)
	case cluster.EvConvert:
		return a.m.AdoptVM(e.VM, to)
	case cluster.EvReintegrate:
		return a.m.Reintegrate(e.VM, from, to)
	case cluster.EvVacate, cluster.EvExchange, cluster.EvReturnAll:
		if e.Partial {
			return a.m.PartialMigrate(e.VM, from, to)
		}
		return a.m.FullMigrate(e.VM, from, to)
	}
	return nil
}
