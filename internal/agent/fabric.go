package agent

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"oasis/internal/memserver/shard"
	"oasis/internal/pagestore"
)

// The fabric admin surface: operators grow, shrink and inspect the
// sharded memory-server fabric of a running agent without restarting
// it. A host may hold several fabric clients at once — the agent's own
// upload fabric plus one per fabric-backed partial VM — and a
// membership change must land on all of them, or different clients
// would place pages by different rings. The handlers therefore apply
// each change to every live fabric and to the agent's transport
// config, so memtaps created later (and partial hand-offs to peers)
// see the new membership too.

// fabricWaitTimeout bounds how long a Wait=true membership change
// blocks on the triggered rebalance before reporting it still running.
const fabricWaitTimeout = 5 * time.Minute

// FabricBackendArgs names one backend for a live membership change.
// Wait blocks the reply until the triggered rebalance (migration of
// moved ranges, re-replication) settles on every fabric, so scripted
// drains can chain "remove A, wait" then "power off A" safely.
type FabricBackendArgs struct {
	Addr string `json:"addr"`
	Wait bool   `json:"wait,omitempty"`
}

// VMFabricStatus is one partial VM's fabric health.
type VMFabricStatus struct {
	VMID   pagestore.VMID `json:"vmid"`
	Status shard.Status   `json:"status"`
}

// FabricStatusReply snapshots every fabric client the agent holds.
type FabricStatusReply struct {
	// Sharded reports whether the agent's transport targets a fabric at
	// all; the remaining fields are empty when it does not.
	Sharded bool `json:"sharded"`
	// Backends is the configured membership new dials will use.
	Backends []string `json:"backends,omitempty"`
	// Upload is the agent's own detach-upload fabric, nil until its
	// first use dials it.
	Upload *shard.Status `json:"upload,omitempty"`
	// VMs lists the per-partial-VM memtap fabrics.
	VMs []VMFabricStatus `json:"vms,omitempty"`
}

// vmFabric is one partial VM's memtap fabric.
type vmFabric struct {
	id  pagestore.VMID
	fab *shard.Client
}

// liveFabrics snapshots every dialed fabric client: the agent's upload
// fabric (nil until first use) plus each partial VM's memtap fabric, in
// VM-ID order.
func (a *Agent) liveFabrics() (upload *shard.Client, vms []vmFabric) {
	a.fabricMu.Lock()
	upload = a.fabric
	a.fabricMu.Unlock()
	a.mu.Lock()
	for id, mv := range a.vms {
		if mv.mt != nil {
			if f := mv.mt.Fabric(); f != nil {
				vms = append(vms, vmFabric{id, f})
			}
		}
	}
	a.mu.Unlock()
	sort.Slice(vms, func(i, j int) bool { return vms[i].id < vms[j].id })
	return upload, vms
}

// changeFabricMembership applies one add/remove to the transport
// config and every live fabric. A fabric already at the target
// membership is skipped, so retrying a partially-failed change
// converges instead of erroring on the fabrics that already took it.
func (a *Agent) changeFabricMembership(args FabricBackendArgs, add bool) error {
	if args.Addr == "" {
		return fmt.Errorf("fabric: backend address required")
	}
	a.mu.Lock()
	if !a.transport.Sharded() {
		a.mu.Unlock()
		return fmt.Errorf("fabric: agent transport is not sharded")
	}
	// Update the configured membership first: even if a live fabric
	// refuses (mid-rebalance), future dials must see the target state.
	has := slices.Contains(a.transport.Backends, args.Addr)
	switch {
	case add && !has:
		a.transport.Backends = append(a.transport.Backends, args.Addr)
	case !add && has:
		a.transport.Backends = slices.DeleteFunc(a.transport.Backends, func(b string) bool { return b == args.Addr })
	}
	a.mu.Unlock()

	upload, vmFabs := a.liveFabrics()
	type target struct {
		name string
		fab  *shard.Client
	}
	targets := make([]target, 0, len(vmFabs)+1)
	if upload != nil {
		targets = append(targets, target{"upload fabric", upload})
	}
	for _, v := range vmFabs {
		targets = append(targets, target{fmt.Sprintf("vm %04d fabric", v.id), v.fab})
	}

	var errs []error
	changed := make([]*shard.Client, 0, len(targets))
	for _, t := range targets {
		if t.fab.Ring().HasBackend(args.Addr) == add {
			continue // already at the target membership
		}
		var err error
		if add {
			err = t.fab.AddBackend(args.Addr)
		} else {
			err = t.fab.RemoveBackend(args.Addr)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", t.name, err))
			continue
		}
		changed = append(changed, t.fab)
	}
	if args.Wait {
		for _, f := range changed {
			if err := f.WaitRebalance(fabricWaitTimeout); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

func (a *Agent) handleFabricChange(add bool) func(FabricBackendArgs, []byte) (any, []byte, error) {
	done := map[bool]string{true: "added", false: "removed"}[add]
	return func(args FabricBackendArgs, _ []byte) (any, []byte, error) {
		if err := a.changeFabricMembership(args, add); err != nil {
			return nil, nil, err
		}
		a.logf("agent %s: fabric backend %s %s", a.Name, args.Addr, done)
		return nil, nil, nil
	}
}

func (a *Agent) handleFabricStatus(struct{}, []byte) (any, []byte, error) {
	a.mu.Lock()
	reply := FabricStatusReply{
		Sharded:  a.transport.Sharded(),
		Backends: append([]string(nil), a.transport.Backends...),
	}
	a.mu.Unlock()
	upload, vmFabs := a.liveFabrics()
	if upload != nil {
		st := upload.FabricStatus()
		reply.Upload = &st
	}
	for _, v := range vmFabs {
		reply.VMs = append(reply.VMs, VMFabricStatus{VMID: v.id, Status: v.fab.FabricStatus()})
	}
	return reply, nil, nil
}

// FabricAddBackend orders a host agent to add a memory-server backend
// to its fabric(s), rebalancing only the ranges whose placement moved.
func (m *Manager) FabricAddBackend(hostName, backend string, wait bool) error {
	return m.call(hostName, "Agent.FabricAddBackend", FabricBackendArgs{Addr: backend, Wait: wait}, nil)
}

// FabricRemoveBackend orders a host agent to drain a backend out of its
// fabric(s): ownership moves to the survivors and the freed copies are
// re-replicated before the backend may be powered off (wait=true blocks
// until that has happened).
func (m *Manager) FabricRemoveBackend(hostName, backend string, wait bool) error {
	return m.call(hostName, "Agent.FabricRemoveBackend", FabricBackendArgs{Addr: backend, Wait: wait}, nil)
}

// FabricStatus fetches a host agent's fabric health: ring epoch,
// per-backend breaker/hint state, rebalance progress, under-replicated
// range count.
func (m *Manager) FabricStatus(hostName string) (FabricStatusReply, error) {
	var reply FabricStatusReply
	if err := m.call(hostName, "Agent.FabricStatus", nil, &reply); err != nil {
		return FabricStatusReply{}, err
	}
	return reply, nil
}
