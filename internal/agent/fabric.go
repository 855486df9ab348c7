package agent

import (
	"fmt"
	"slices"
	"time"

	"oasis/internal/memserver/shard"
)

// The fabric admin surface: operators grow, shrink and inspect the
// sharded memory-server fabric of a running agent without restarting
// it. A host holds one fabric client (lease.go), which carries its
// detach uploads and the pages of every sharded partial VM on it, so a
// membership change lands on that client and on the agent's transport
// config, and memtaps, uploads and hand-offs to peers all see it.

// fabricWaitTimeout bounds how long a Wait=true membership change
// blocks on the triggered rebalance before reporting it still running.
const fabricWaitTimeout = 5 * time.Minute

// FabricBackendArgs names one backend for a live membership change.
// Wait blocks the reply until the triggered rebalance (migration of
// moved ranges, re-replication) settles, so scripted drains can chain
// "remove A, wait" then "power off A" safely.
type FabricBackendArgs struct {
	Addr string `json:"addr"`
	Wait bool   `json:"wait,omitempty"`
}

// FabricStatusReply snapshots the agent's fabric client.
type FabricStatusReply struct {
	// Sharded reports whether the agent's transport targets a fabric at
	// all; the remaining fields are empty when it does not.
	Sharded bool `json:"sharded"`
	// Backends is the configured membership new dials will use.
	Backends []string `json:"backends,omitempty"`
	// Upload is the host's fabric client — its detach uploads and the
	// pages of its sharded partial VMs — nil until its first use dials
	// it.
	Upload *shard.Status `json:"upload,omitempty"`
}

// changeFabricMembership applies one add/remove to the transport config
// and the fabric client, if it is dialed. A fabric already at the target
// membership is left alone, so retrying a change that failed part way
// converges instead of erroring.
func (a *Agent) changeFabricMembership(args FabricBackendArgs, add bool) error {
	if args.Addr == "" {
		return fmt.Errorf("fabric: backend address required")
	}
	a.mu.Lock()
	if !a.transport.Sharded() {
		a.mu.Unlock()
		return fmt.Errorf("fabric: agent transport is not sharded")
	}
	// Update the configured membership first: even if the fabric refuses
	// (mid-rebalance), future dials must see the target state.
	has := slices.Contains(a.transport.Backends, args.Addr)
	switch {
	case add && !has:
		a.transport.Backends = append(a.transport.Backends, args.Addr)
	case !add && has:
		a.transport.Backends = slices.DeleteFunc(a.transport.Backends, func(b string) bool { return b == args.Addr })
	}
	a.mu.Unlock()

	f := a.dialedFabric()
	if f == nil || f.Ring().HasBackend(args.Addr) == add {
		return nil
	}
	change := f.RemoveBackend
	if add {
		change = f.AddBackend
	}
	err := change(args.Addr)
	if err == nil && args.Wait {
		err = f.WaitRebalance(fabricWaitTimeout)
	}
	return err
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
	tc := a.transportConfig()
	reply := FabricStatusReply{Sharded: tc.Sharded(), Backends: tc.Backends}
	if f := a.dialedFabric(); f != nil {
		st := f.FabricStatus()
		reply.Upload = &st
	}
	return reply, nil, nil
}

// FabricAddBackend orders a host agent to add a memory-server backend
// to its fabric, rebalancing only the ranges whose placement moved.
func (m *Manager) FabricAddBackend(hostName, backend string, wait bool) error {
	return m.call(hostName, "Agent.FabricAddBackend", FabricBackendArgs{Addr: backend, Wait: wait}, nil)
}

// FabricRemoveBackend orders a host agent to drain a backend out of its
// fabric: ownership moves to the survivors and the freed copies are
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
