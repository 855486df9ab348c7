package agent

import (
	"cmp"
	"fmt"

	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
)

// memConn is this host's one connection to a memory server, dialed on the
// first hand-off that needs it, and the leases on it (DESIGN.md §2).
type memConn struct {
	addr    string
	pool    *memserver.ClientPool
	holders map[*lease]struct{} // guarded by Agent.connsMu
}

// lease is one partial VM's hold on a memConn and its memtap's client,
// whose Close leaves the connection open.
type lease struct {
	*memserver.ClientPool
	a  *Agent
	c  *memConn
	vm pagestore.VMID
}

// memtapFor returns VM vm's memtap on this host's connection to the memory
// server at addr, dialed outside every lock if there is none; a sharded VM
// keeps a fabric client of its own, as fabric.go rewrites each VM's.
func (a *Agent) memtapFor(vm pagestore.VMID, addr string, opts memtap.Options) (*memtap.Memtap, error) {
	if len(opts.Backends) > 0 {
		return memtap.NewWithOptions(vm, addr, a.secret, opts)
	}
	a.connsMu.Lock()
	c := a.conns[addr]
	a.connsMu.Unlock()
	if c == nil {
		fresh := &memConn{addr: addr, holders: map[*lease]struct{}{}}
		pool, err := a.dialMem(addr, opts.PoolSize, func(_, to memserver.BreakerState) {
			a.connsMu.Lock() // every holder pages through this breaker
			for l := range fresh.holders {
				memtap.ReportBreaker(l.vm, to)
			}
			a.connsMu.Unlock()
		})
		if err != nil {
			return nil, fmt.Errorf("memtap: vm %04d: %w", vm, err)
		}
		fresh.pool = pool
		a.connsMu.Lock()
		if c = a.conns[addr]; c == nil && a.conns != nil {
			c, a.conns[addr] = fresh, fresh
		}
		a.connsMu.Unlock()
		if c != fresh {
			pool.Close() // another hand-off dialed first, or the agent closed
		}
	}
	a.connsMu.Lock()
	defer a.connsMu.Unlock()
	if a.conns == nil {
		return nil, fmt.Errorf("agent %s is closed", a.Name)
	}
	l := &lease{ClientPool: c.pool, a: a, c: c, vm: vm}
	c.holders[l] = struct{}{}
	memtap.ReportBreaker(vm, c.pool.BreakerState())
	return memtap.NewWithClient(vm, l), nil
}

// dialMem dials a pool to addr with memtap's resilience settings.
func (a *Agent) dialMem(addr string, lanes int, onState func(from, to memserver.BreakerState)) (*memserver.ClientPool, error) {
	cfg := memtap.DefaultResilience
	cfg.Name, cfg.OnStateChange = cmp.Or(cfg.Name, "memtap"), onState
	return memserver.DialPool(addr, a.secret, memserver.PoolConfig{Size: max(lanes, 1), Resilience: cfg})
}

// Close gives the lease back.
func (l *lease) Close() error {
	l.a.connsMu.Lock()
	delete(l.c.holders, l)
	l.a.connsMu.Unlock()
	return nil
}

// Convert dials the connection an adoption converts over, so that its
// batches never queue ahead of the other holders' faults.
func (l *lease) Convert() (memtap.PageClient, error) { return l.a.dialMem(l.c.addr, l.Size(), nil) }
