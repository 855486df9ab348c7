package agent

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// backend is one memory-server daemon of a test fabric, with a registry
// of its own.
type backend struct {
	addr string
	srv  *memserver.Server
	reg  *telemetry.Registry
}

// startBackends brings up n fabric backends sharing the agents' secret.
func startBackends(t *testing.T, n int) []backend {
	t.Helper()
	bs := make([]backend, n)
	for i := range bs {
		b := &bs[i]
		b.srv, b.reg = memserver.NewServer(secret, nil), telemetry.NewRegistry()
		b.srv.SetMetricsRegistry(b.reg)
		addr, err := b.srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.srv.Close() })
		b.addr = addr.String()
	}
	return bs
}

func addrsOf(bs []backend) []string {
	addrs := make([]string, len(bs))
	for i, b := range bs {
		addrs[i] = b.addr
	}
	return addrs
}

// shardHosts points every agent's transport at the fabric over addrs.
func shardHosts(agents []*Agent, addrs []string, replicas int) {
	for _, a := range agents {
		a.SetTransport(TransportConfig{Backends: slices.Clone(addrs), Replicas: replicas})
	}
}

// vmOwnedBy returns the first VM id from from whose first page range the
// ring over addrs places on exactly owners, primary first.
func vmOwnedBy(t *testing.T, addrs []string, from pagestore.VMID, owners ...int) pagestore.VMID {
	t.Helper()
	ring, err := shard.NewRing(addrs, len(owners), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := from; id < from+1000; id++ {
		if slices.Equal(ring.Owners(id, 0), owners) {
			return id
		}
	}
	t.Fatalf("no vm from %04d has owners %v", from, owners)
	return 0
}

// degradedLevel reads VM id's oasis_memtap_degraded gauge.
func degradedLevel(id pagestore.VMID) float64 {
	return telemetry.Default.Gauge("oasis_memtap_degraded", "", telemetry.L("vm", fmt.Sprintf("%04d", id))).Value()
}

// eventually polls cond every few milliseconds for up to 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// faultNext reads the next of 200 pages of a 1 MiB VM id on host, which
// faults it in the first time round (n counts the reads), and fails the
// test if the read fails.
func faultNext(t *testing.T, m *Manager, host string, id pagestore.VMID, n *pagestore.PFN) {
	t.Helper()
	*n++
	if _, err := m.ReadPage(host, id, 30+*n%200); err != nil {
		t.Fatalf("vm %04d pfn %d: %v", id, 30+*n%200, err)
	}
}

// silentAt listens at addr and accepts connections it never writes to,
// as a server wedged before its challenge would. The channel it returns
// closes at the first accept; cleanup closes the listener and every
// connection it accepted.
func silentAt(t *testing.T, addr string) <-chan struct{} {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	closed := false
	first := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				c.Close()
			} else if conns = append(conns, c); len(conns) == 1 {
				close(first)
			}
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
	})
	return first
}

// vmInfo returns VM id's entry in host's stats.
func vmInfo(t *testing.T, m *Manager, host string, id pagestore.VMID) (VMInfo, bool) {
	t.Helper()
	st, err := m.HostStats(host)
	if err != nil {
		t.Fatal(err)
	}
	for _, vi := range st.VMs {
		if vi.VMID == id {
			return vi, true
		}
	}
	return VMInfo{}, false
}

// TestShardedHandoffsShareOneFabric: five sharded VMs handed from one
// home to one host page through that host's one fabric client, so no
// backend sees a connection more after the first hand-off. Every
// sharded hand-off used to dial a fabric of its own (2 connections per
// backend after one hand-off, 6 after five).
func TestShardedHandoffsShareOneFabric(t *testing.T) {
	m, agents := startHosts(t, 2)
	bs := startBackends(t, 3)
	shardHosts(agents, addrsOf(bs), 2)
	home, cons := agents[0].Name, agents[1].Name
	totals := func() []float64 {
		out := make([]float64, len(bs))
		for i, b := range bs {
			out[i], _ = connections(b.reg)
		}
		return out
	}
	var first []float64
	for i := range 5 {
		id := pagestore.VMID(71 + i)
		createOn(t, m, home, id, units.MiB, 20, 30)
		if err := m.PartialMigrate(id, home, cons); err != nil {
			t.Fatal(err)
		}
		readBack(t, m, cons, id, 25)
		if i == 0 {
			first = totals()
		}
	}
	if got := totals(); !slices.Equal(got, first) {
		t.Fatalf("connections per backend: %v after one sharded hand-off, %v after five", first, got)
	}
}

// TestShardedLeaveDoesNotStallHost: the host's fabric has a health probe
// parked in the handshake of a backend that accepts and never answers
// while a sharded partial VM leaves the host. A neighbour's reads from
// a second manager never wait for that probe. The VM's own fabric client
// used to be closed under the host lock when it left, and its Close
// waited for the probe (29.7 s; DialTimeout here is 2 s, so bounding the
// handshake alone does not pass this).
func TestShardedLeaveDoesNotStallHost(t *testing.T) {
	fastMemtapResilience(t)
	memtap.DefaultResilience.DialTimeout = 2 * time.Second
	m, agents := startHosts(t, 2)
	bs := startBackends(t, 3)
	addrs := addrsOf(bs)
	shardHosts(agents, addrs, 2)
	home, cons := agents[0].Name, agents[1].Name
	id := vmOwnedBy(t, addrs, 81, 0, 1)
	const neighbour = pagestore.VMID(80)
	createOn(t, m, cons, neighbour, units.MiB, 20, 21)
	createOn(t, m, home, id, units.MiB, 20, 30)
	if err := m.PartialMigrate(id, home, cons); err != nil {
		t.Fatal(err)
	}

	// Backend 0 holds the VM's pages first: once it is gone, faults open
	// its breaker on their way to the replica.
	bs[0].srv.Close()
	var pfn pagestore.PFN
	eventually(t, "the fabric reports backend 0 down", func() bool {
		faultNext(t, m, cons, id, &pfn)
		vi, _ := vmInfo(t, m, cons, id)
		return vi.Underreplicated
	})
	// Put a server that accepts and never answers at its address; the
	// prober's next half-open probe parks in the handshake.
	select {
	case <-silentAt(t, bs[0].addr):
	case <-time.After(5 * time.Second):
		t.Fatal("the prober never dialed the silent backend")
	}

	second := NewManager()
	t.Cleanup(second.Close)
	if err := second.AddHost(cons, agents[1].Addr()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Reintegrate(id, cons, home) }()
	var worst time.Duration
	for reads := 0; reads == 0 || len(done) == 0; reads++ {
		t0 := time.Now()
		readBack(t, second, cons, neighbour, 20)
		worst = max(worst, time.Since(t0))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if worst > 250*time.Millisecond {
		t.Fatalf("a neighbour's read waited %v while a sharded partial VM left the host", worst)
	}
}

// TestShardedHandoffMembershipMismatchRefused: a host refuses a sharded
// hand-off when it has no fabric, or when its fabric places pages by
// another membership or replica count than the sender's. The VM stays
// running and writable at home, and the host holds no partial copy. Such
// a hand-off used to dial a fabric on the sender's ring that no later
// membership change could reach.
func TestShardedHandoffMembershipMismatchRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		cons func(addrs []string) TransportConfig
	}{
		{"no fabric", func([]string) TransportConfig { return TransportConfig{} }},
		{"other membership", func(addrs []string) TransportConfig {
			return TransportConfig{Backends: addrs[1:], Replicas: 2}
		}},
		{"other replica count", func(addrs []string) TransportConfig {
			return TransportConfig{Backends: addrs[:3], Replicas: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, agents := startHosts(t, 2)
			addrs := addrsOf(startBackends(t, 4))
			agents[0].SetTransport(TransportConfig{Backends: addrs[:3], Replicas: 2})
			agents[1].SetTransport(tc.cons(addrs))
			home, cons := agents[0].Name, agents[1].Name
			const id = pagestore.VMID(82)
			createOn(t, m, home, id, units.MiB, 20, 30)
			err := m.PartialMigrate(id, home, cons)
			if err == nil || !strings.Contains(err.Error(), "fabric") {
				t.Fatalf("sharded hand-off to a host with %s: %v, want a refusal naming the fabric", tc.name, err)
			}
			if err := m.WritePage(home, id, 31, page(31)); err != nil {
				t.Fatalf("the VM is not writable at home after the refusal: %v", err)
			}
			if vi, ok := vmInfo(t, m, home, id); !ok || !vi.Owner || vi.Away {
				t.Fatalf("at home after the refusal: %+v", vi)
			}
			if vi, ok := vmInfo(t, m, cons, id); ok {
				t.Fatalf("the refusing host holds a copy: %+v", vi)
			}
		})
	}
}

// TestSharedFabricDegradesEveryVM: two sharded partial VMs page through
// one fabric client. With one backend down both report
// under-replication (gauge 1); with every backend down both report
// degraded (gauge 2).
func TestSharedFabricDegradesEveryVM(t *testing.T) {
	fastMemtapResilience(t)
	m, agents := startHosts(t, 2)
	bs := startBackends(t, 3)
	addrs := addrsOf(bs)
	shardHosts(agents, addrs, 2)
	home, cons := agents[0].Name, agents[1].Name
	// Between them, the first ranges of the two VMs live on every
	// backend, and backend 0 holds the first VM's first.
	ids := []pagestore.VMID{vmOwnedBy(t, addrs, 4201, 0, 1), vmOwnedBy(t, addrs, 4301, 2, 0)}
	for _, id := range ids {
		createOn(t, m, home, id, units.MiB, 20, 30)
		if err := m.PartialMigrate(id, home, cons); err != nil {
			t.Fatal(err)
		}
	}
	levels := func(degraded, underreplicated bool, gauge float64) bool {
		for _, id := range ids {
			vi, ok := vmInfo(t, m, cons, id)
			if !ok || vi.Degraded != degraded || vi.Underreplicated != underreplicated || degradedLevel(id) != gauge {
				return false
			}
		}
		return true
	}

	bs[0].srv.Close()
	var pfn pagestore.PFN
	eventually(t, "both VMs report under-replication, gauge 1", func() bool {
		faultNext(t, m, cons, ids[0], &pfn)
		return levels(false, true, 1)
	})

	for _, b := range bs[1:] {
		b.srv.Close()
	}
	eventually(t, "both VMs report degraded, gauge 2", func() bool {
		pfn++
		for _, id := range ids {
			m.ReadPage(cons, id, 30+pfn%200) // fails: opens the breakers
		}
		return levels(true, true, 2)
	})
}

// TestResidentShardedVMThroughFabricAdd grows the fabric under a
// resident sharded partial VM: first at its home, whose rebalance moves
// the VM's ranges, then at the consolidation host. After each step every
// page written at home reads back on the consolidation host, whose
// fabric then has 4 backends.
func TestResidentShardedVMThroughFabricAdd(t *testing.T) {
	m, agents := startHosts(t, 2)
	addrs := addrsOf(startBackends(t, 4))
	shardHosts(agents, addrs[:3], 2)
	home, cons := agents[0].Name, agents[1].Name
	const id = pagestore.VMID(83)
	const alloc = 16 * units.MiB // four page ranges
	var pfns []pagestore.PFN
	for pfn := pagestore.PFN(20); pfn < pagestore.PFN(alloc.Pages()); pfn += 97 {
		pfns = append(pfns, pfn)
	}
	if err := m.CreateVMOn(home, CreateVMArgs{VMID: id, Alloc: alloc, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range pfns {
		if err := m.WritePage(home, id, pfn, page(byte(pfn))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PartialMigrate(id, home, cons); err != nil {
		t.Fatal(err)
	}
	// Each step faults in its own half of the pages, so both go to the
	// fabric.
	for step, host := range []string{home, cons} {
		if err := m.FabricAddBackend(host, addrs[3], true); err != nil {
			t.Fatal(err)
		}
		for i := step; i < len(pfns); i += 2 {
			readBack(t, m, cons, id, pfns[i])
		}
		st, err := m.FabricStatus(host)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Backends) != 4 || st.Upload == nil || len(st.Upload.Backends) != 4 {
			t.Fatalf("%s after adding a backend: configured %v, fabric %+v; want 4 backends", host, st.Backends, st.Upload)
		}
	}
}

// TestShardedHandoffsBesideLeaves runs sharded hand-offs to one host
// while other sharded partial VMs leave it. A hand-off takes a lease
// under the host's client table lock and a leaving VM gives one back
// under the host lock, so neither may wait for the other's lock while
// holding its own (run it under -race as well).
func TestShardedHandoffsBesideLeaves(t *testing.T) {
	m, agents := startHosts(t, 2)
	shardHosts(agents, addrsOf(startBackends(t, 3)), 2)
	home, cons := agents[0].Name, agents[1].Name
	ids := []pagestore.VMID{91, 92, 93, 94}
	for _, id := range ids {
		createOn(t, m, home, id, units.MiB, 20, 22)
	}
	errs := make(chan error, len(ids))
	for _, id := range ids {
		go func() {
			for range 8 {
				if err := m.PartialMigrate(id, home, cons); err != nil {
					errs <- fmt.Errorf("vm %04d: hand-off: %w", id, err)
					return
				}
				if err := m.Reintegrate(id, cons, home); err != nil {
					errs <- fmt.Errorf("vm %04d: leave: %w", id, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range ids {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("hand-offs beside leaves made no progress in 30 s: a lock-order deadlock")
		}
	}
	for _, id := range ids {
		readBack(t, m, home, id, 21)
	}
}

// TestShardedAdoptWithABackendDown: a sharded partial VM is adopted while
// one of three backends (two replicas) is down. The adoption converts
// over a fabric of its own whose backends dial on first use, so its
// reads fail over to the replicas, and every page reads back.
func TestShardedAdoptWithABackendDown(t *testing.T) {
	fastMemtapResilience(t)
	m, agents := startHosts(t, 2)
	bs := startBackends(t, 3)
	addrs := addrsOf(bs)
	shardHosts(agents, addrs, 2)
	home, cons := agents[0].Name, agents[1].Name
	id := vmOwnedBy(t, addrs, 95, 0, 1) // backend 0 holds its pages first
	createOn(t, m, home, id, units.MiB, 20, 30)
	if err := m.PartialMigrate(id, home, cons); err != nil {
		t.Fatal(err)
	}
	bs[0].srv.Close()
	if err := m.AdoptVM(id, cons); err != nil {
		t.Fatalf("adopting with one backend down: %v", err)
	}
	for pfn := pagestore.PFN(20); pfn < 30; pfn++ {
		readBack(t, m, cons, id, pfn)
	}
	if vi, ok := vmInfo(t, m, cons, id); !ok || !vi.Owner || vi.Partial {
		t.Fatalf("after the adoption: %+v, want a full VM owned here", vi)
	}
}
