package agent

import (
	"cmp"
	"errors"
	"fmt"

	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
)

// fabricKey is the host's fabric in Agent.conns, beside the memory
// servers there by address.
const fabricKey = ""

// pageConn is one client this host dials once and its partial VMs share:
// its connection to a memory server, or its fabric, which also carries
// the host's own detach uploads. holders are the leases on it, with the
// VM each pages for (DESIGN.md §2).
type pageConn struct {
	key     string
	client  memserver.Conn            // set under Agent.connsMu
	holders map[*lease]pagestore.VMID // guarded by Agent.connsMu
}

// lease is one partial VM's hold on a pageConn. Its memtap pages
// through a poolLease or a fabricLease, which hand it the shared
// client's methods, and whose Close leaves that client open.
type lease struct {
	a *Agent
	c *pageConn
}

// A poolLease is a lease on a memory server's pool, a fabricLease one on
// the host's fabric.
type (
	poolLease struct {
		*memserver.ClientPool
		*lease
	}
	fabricLease struct {
		*shard.Client
		*lease
		poolSize int // the transport's PoolSize when the lease was taken
	}
)

// conn returns this host's client under key, dialed outside every lock
// if there is none.
func (a *Agent) conn(key string) (*pageConn, error) {
	a.connsMu.Lock()
	c := a.conns[key]
	a.connsMu.Unlock()
	if c != nil {
		return c, nil
	}
	fresh := &pageConn{key: key, holders: map[*lease]pagestore.VMID{}}
	client, err := a.dial(key, func(_, _ memserver.BreakerState) { a.report(fresh) }, false)
	if err != nil {
		return nil, err
	}
	if fab, ok := client.(*shard.Client); ok {
		fab.OnHealthChange(func() { a.report(fresh) })
	}
	a.connsMu.Lock()
	if c = a.conns[key]; c == nil && a.conns != nil {
		fresh.client = client
		c, a.conns[key] = fresh, fresh
	}
	a.connsMu.Unlock()
	switch {
	case c == nil:
		client.Close()
		return nil, fmt.Errorf("agent %s is closed", a.Name)
	case c != fresh:
		client.Close() // another caller dialed first
	}
	return c, nil
}

// dialedFabric returns this host's fabric client, or nil if nothing has
// needed it yet.
func (a *Agent) dialedFabric() *shard.Client {
	a.connsMu.Lock()
	defer a.connsMu.Unlock()
	if c := a.conns[fabricKey]; c != nil {
		return c.client.(*shard.Client)
	}
	return nil
}

// dial connects the client under key with memtap's resilience settings:
// the fabric over the transport's backends (if lazy, each dials on first
// use, so a dead one fails reads over), or a pool to the memory server at
// key, of the transport's PoolSize lanes either way.
func (a *Agent) dial(key string, onState func(from, to memserver.BreakerState), lazy bool) (memserver.Conn, error) {
	tc := a.transportConfig()
	cfg := memtap.DefaultResilience
	cfg.Name, cfg.OnStateChange = cmp.Or(cfg.Name, "memtap"), onState
	t := shard.Target{Addr: key, Lanes: tc.PoolSize, Resilience: &cfg}
	switch {
	case key != fabricKey:
		return shard.Connect(t, a.secret)
	case !tc.Sharded():
		return nil, errors.New("this host has no fabric: its transport is not sharded")
	}
	cfg.Name = cmp.Or(memtap.DefaultResilience.Name, "agent-fabric")
	if lazy {
		pool := memserver.PoolConfig{Size: tc.PoolSize, Resilience: cfg}
		return shard.New(tc.Backends, a.secret, shard.Config{Replicas: tc.Replicas, Pool: pool})
	}
	t.Backends, t.Replicas = tc.Backends, tc.Replicas
	return shard.Connect(t, a.secret)
}

// report sets the degraded gauge of every VM paging through c from c's
// health (none while c is dialing).
func (a *Agent) report(c *pageConn) {
	a.connsMu.Lock()
	defer a.connsMu.Unlock()
	vms := make([]pagestore.VMID, 0, len(c.holders))
	for _, vm := range c.holders {
		vms = append(vms, vm)
	}
	memtap.Report(c.client, vms...)
}

// memtapFor returns the memtap of the partial VM a hand-off brings, on a
// lease of the client its pages come through: the host's fabric if the
// hand-off is sharded, else its connection to the memory server at
// args.MemAddr. A sharded hand-off is refused unless the host's fabric
// places pages as the sender's ring does.
//
// Lock order: Agent.mu, then connsMu (set gives leases back under
// Agent.mu), so the transport config is read before connsMu is taken.
func (a *Agent) memtapFor(args *receivePartialArgs) (*memtap.Memtap, error) {
	id, key := args.Desc.VMID, args.MemAddr
	if len(args.Backends) > 0 {
		key = fabricKey
	}
	poolSize := a.transportConfig().PoolSize
	c, err := a.conn(key)
	if err != nil {
		return nil, fmt.Errorf("memtap: vm %04d: %w", id, err)
	}
	fab, sharded := c.client.(*shard.Client)
	if sharded {
		ring, err := shard.NewRing(args.Backends, args.Replicas, 0, 0)
		if err != nil || ring.Fingerprint() != fab.Ring().Fingerprint() {
			return nil, fmt.Errorf("memtap: vm %04d: its pages are on fabric %v at %d replicas, this host's is %v at %d",
				id, args.Backends, args.Replicas, fab.Backends(), fab.Ring().Replicas())
		}
	}
	l := &lease{a: a, c: c}
	a.connsMu.Lock()
	c.holders[l] = id
	memtap.Report(c.client, id)
	a.connsMu.Unlock()
	if sharded {
		return memtap.NewWithClient(id, fabricLease{fab, l, poolSize}), nil
	}
	return memtap.NewWithClient(id, poolLease{c.client.(*memserver.ClientPool), l}), nil
}

// Close gives the lease back.
func (l poolLease) Close() error   { return l.giveBack() }
func (l fabricLease) Close() error { return l.giveBack() }

// Size is the lanes a fabric's memtap converts with: the pool size of
// each backend.
func (l fabricLease) Size() int { return max(l.poolSize, 1) }

func (l *lease) giveBack() error {
	l.a.connsMu.Lock()
	delete(l.c.holders, l)
	l.a.connsMu.Unlock()
	return nil
}

// Convert dials the client an adoption converts over, a fabric lazily,
// so that its batches never queue ahead of the other holders' faults.
func (l *lease) Convert() (memtap.PageClient, error) { return l.a.dial(l.c.key, nil, true) }
