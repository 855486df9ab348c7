package agent

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/telemetry"
	"oasis/internal/units"
	"oasis/internal/wire"
)

// startHome is startHosts whose first host, the home, has a memory
// server with a registry of its own, set up by setup before it listens.
func startHome(t *testing.T, n int, setup func(*memserver.Server)) (*Manager, []*Agent, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	m := NewManager()
	t.Cleanup(m.Close)
	agents := make([]*Agent, n)
	for i := range agents {
		a := New(hostName(i), secret, nil)
		if i == 0 {
			a.mem.SetMetricsRegistry(reg)
			if setup != nil {
				setup(a.mem)
			}
		}
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		if err := m.AddHost(a.Name, a.Addr()); err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	return m, agents, reg
}

// connections reads the home memory server's connection counters.
func connections(reg *telemetry.Registry) (total, active float64) {
	return reg.Counter("oasis_memserver_connections_total", "").Value(),
		reg.Gauge("oasis_memserver_connections_active", "").Value()
}

// createOn creates VM id on host with pages [from, to) written, page pfn
// filled with byte pfn.
func createOn(t *testing.T, m *Manager, host string, id pagestore.VMID, alloc units.Bytes, from, to pagestore.PFN) {
	t.Helper()
	if err := m.CreateVMOn(host, CreateVMArgs{VMID: id, Alloc: alloc, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	for pfn := from; pfn < to; pfn++ {
		if err := m.WritePage(host, id, pfn, page(byte(pfn))); err != nil {
			t.Fatal(err)
		}
	}
}

// readBack faults pfn in on host and checks it holds byte pfn.
func readBack(t *testing.T, m *Manager, host string, id pagestore.VMID, pfn pagestore.PFN) {
	t.Helper()
	got, err := m.ReadPage(host, id, pfn)
	if err != nil {
		t.Fatalf("vm %04d pfn %d: %v", id, pfn, err)
	}
	if !bytes.Equal(got, page(byte(pfn))) {
		t.Fatalf("vm %04d pfn %d = %x, want %x", id, pfn, got[0], byte(pfn))
	}
}

// TestHandoffsShareOneConnection: five consolidations of one VM to one
// host page over one connection to the home's memory server. Every
// hand-off used to dial it again and repeat the handshake.
func TestHandoffsShareOneConnection(t *testing.T) {
	m, agents, reg := startHome(t, 2, nil)
	home, cons := agents[0].Name, agents[1].Name
	const id = pagestore.VMID(61)
	createOn(t, m, home, id, units.MiB, 20, 30)
	for cycle := range 5 {
		if err := m.PartialMigrate(id, home, cons); err != nil {
			t.Fatal(err)
		}
		readBack(t, m, cons, id, pagestore.PFN(20+cycle))
		if err := m.Reintegrate(id, cons, home); err != nil {
			t.Fatal(err)
		}
	}
	if total, _ := connections(reg); total != 1 {
		t.Fatalf("5 hand-offs opened %v connections to the home memory server, want 1", total)
	}
}

// TestSharedConnectionDegradesEveryVM: two VMs from one home page over
// one connection. When the home memory server dies, a fault of one trips
// the breaker they share, and both report degraded, in their stats and
// in their own oasis_memtap_degraded series.
func TestSharedConnectionDegradesEveryVM(t *testing.T) {
	fastMemtapResilience(t)
	m, agents := startHosts(t, 2)
	home, cons := agents[0], agents[1]
	ids := []pagestore.VMID{4101, 4102}
	for _, id := range ids {
		createOn(t, m, home.Name, id, units.MiB, 20, 21)
		if err := m.PartialMigrate(id, home.Name, cons.Name); err != nil {
			t.Fatal(err)
		}
	}
	home.mem.Close()
	waitDegraded(t, m, cons.Name, ids[0])
	st, err := m.HostStats(cons.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 2 {
		t.Fatalf("consolidation host holds %d VMs, want 2", len(st.VMs))
	}
	for _, vi := range st.VMs {
		if !vi.Degraded {
			t.Errorf("vm %04d does not report degraded", vi.VMID)
		}
	}
	for _, id := range ids {
		g := telemetry.Default.Gauge("oasis_memtap_degraded", "", telemetry.L("vm", fmt.Sprintf("%04d", id)))
		if g.Value() != 2 {
			t.Errorf("oasis_memtap_degraded{vm=%04d} = %v, want 2", id, g.Value())
		}
	}
}

// TestIdleDroppedConnectionRedials: the home memory server drops the
// shared connection once it sits idle; the next fault redials it and
// succeeds, and the VM is not degraded.
func TestIdleDroppedConnectionRedials(t *testing.T) {
	m, agents, reg := startHome(t, 2, func(s *memserver.Server) { s.SetIdleTimeout(50 * time.Millisecond) })
	home, cons := agents[0].Name, agents[1].Name
	const id = pagestore.VMID(62)
	createOn(t, m, home, id, units.MiB, 20, 30)
	if err := m.PartialMigrate(id, home, cons); err != nil {
		t.Fatal(err)
	}
	readBack(t, m, cons, id, 20)
	for deadline := time.Now().Add(5 * time.Second); reg.Counter("oasis_memserver_idle_drops_total", "").Value() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never dropped the idle connection")
		}
	}
	for pfn := pagestore.PFN(21); pfn < 30; pfn++ {
		readBack(t, m, cons, id, pfn)
	}
	st, err := m.HostStats(cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || st.VMs[0].Degraded {
		t.Fatalf("after the idle drop: %+v", st.VMs)
	}
	if total, _ := connections(reg); total < 2 {
		t.Fatalf("%v connections, want the first and a redial", total)
	}
}

// TestCloseReleasesConnections: closing the consolidation host's agent
// closes its connection to the home memory server, partial VMs or not.
func TestCloseReleasesConnections(t *testing.T) {
	m, agents, reg := startHome(t, 2, nil)
	home, cons := agents[0].Name, agents[1]
	const id = pagestore.VMID(63)
	createOn(t, m, home, id, units.MiB, 20, 21)
	if err := m.PartialMigrate(id, home, cons.Name); err != nil {
		t.Fatal(err)
	}
	readBack(t, m, cons.Name, id, 20)
	if _, active := connections(reg); active != 1 {
		t.Fatalf("%v connections active, want 1", active)
	}
	cons.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, active := connections(reg); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the home memory server still has a connection from a closed agent")
		}
	}
}

// TestClosedAgentDialsNoPeer: a closed agent refuses a peer call rather
// than dial a connection nothing would close, as a hand-off still running
// while Close proceeds would.
func TestClosedAgentDialsNoPeer(t *testing.T) {
	_, agents := startHosts(t, 2)
	closed, peer := agents[0], agents[1]
	closed.Close()
	err := closed.callPeer(peer.Addr(), "Agent.Stats", nil, nil)
	closed.peersMu.Lock()
	peers := len(closed.peers)
	closed.peersMu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "is closed") || peers != 0 {
		t.Fatalf("peer call after Close: %v, %d peer connections kept", err, peers)
	}
}

// TestExecContextTravels: a VM's exec context reaches its peer byte for
// byte as the frame payload of both hand-offs that carry a descriptor,
// ReceivePartial and ReceiveFull.
func TestExecContextTravels(t *testing.T) {
	m, agents := startHosts(t, 3)
	home, cons, dest := agents[0], agents[1], agents[2]
	const id = pagestore.VMID(64)
	createOn(t, m, home.Name, id, units.MiB, 20, 21)
	home.mu.Lock()
	want := home.vms[id].desc.ExecContext
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	want = bytes.Clone(want)
	home.mu.Unlock()
	execContext := func(a *Agent) []byte {
		a.mu.Lock()
		defer a.mu.Unlock()
		return bytes.Clone(a.vms[id].desc.ExecContext)
	}
	if err := m.PartialMigrate(id, home.Name, cons.Name); err != nil {
		t.Fatal(err)
	}
	if got := execContext(cons); !bytes.Equal(got, want) {
		t.Fatalf("ReceivePartial delivered a %d-byte exec context unlike the %d sent", len(got), len(want))
	}
	if err := m.Reintegrate(id, cons.Name, home.Name); err != nil {
		t.Fatal(err)
	}
	if err := m.FullMigrate(id, home.Name, dest.Name); err != nil {
		t.Fatal(err)
	}
	if got := execContext(dest); !bytes.Equal(got, want) {
		t.Fatalf("ReceiveFull delivered a %d-byte exec context unlike the %d sent", len(got), len(want))
	}
}

// convertDelay is how long the home memory server sleeps before each
// read on every connection but its first in adoptBesideNeighbour: a
// conversion exchange is slow there, and a fault that queued behind one
// would take at least this long.
const convertDelay = 20 * time.Millisecond

// slowAfterFirst delays each read of every connection but the first.
type slowAfterFirst struct{ net.Conn }

func (c slowAfterFirst) Read(p []byte) (int, error) {
	time.Sleep(convertDelay)
	return c.Conn.Read(p)
}

// adoptBesideNeighbour runs AdoptVM on one partial VM while another from
// the same home faults page after page on the same host, and returns
// the neighbour's fault latencies and the home server's registry. Every
// connection to the home memory server after the first, the one the two
// VMs share, reads convertDelay slower.
func adoptBesideNeighbour(t *testing.T) ([]time.Duration, *telemetry.Registry) {
	t.Helper()
	var accepted atomic.Int32
	m, agents, reg := startHome(t, 2, func(s *memserver.Server) {
		s.SetConnWrapper(func(c net.Conn) net.Conn {
			if accepted.Add(1) == 1 {
				return c
			}
			return slowAfterFirst{c}
		})
	})
	home, cons := agents[0], agents[1].Name
	// The adoption's call goes over a connection of its own: the
	// manager's to a host carries one call at a time.
	c, err := wire.Dial(agents[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const neighbour, adopted = pagestore.VMID(65), pagestore.VMID(66)
	const alloc = 16 * units.MiB
	r := rng.New(66)
	for _, id := range []pagestore.VMID{neighbour, adopted} {
		createOn(t, m, home.Name, id, alloc, 0, 0)
		home.mu.Lock()
		im := home.vms[id].image
		for pfn := pagestore.PFN(20); pfn < pagestore.PFN(alloc.Pages()); pfn++ {
			p := page(byte(pfn)) // what readBack expects of the neighbour
			for i := 0; id == adopted && i < 64; i++ {
				p[r.Intn(len(p))] = byte(r.Uint64()) // real work for the decode
			}
			if err := im.Write(pfn, p); err != nil {
				t.Fatal(err)
			}
		}
		home.mu.Unlock()
		if err := m.PartialMigrate(id, home.Name, cons); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- c.Call("Agent.AdoptVM", vmArgs{VMID: adopted}, nil) }()
	var lat []time.Duration
	for pfn := pagestore.PFN(20); pfn < pagestore.PFN(alloc.Pages()) && len(done) == 0; pfn++ {
		t0 := time.Now()
		readBack(t, m, cons, neighbour, pfn)
		lat = append(lat, time.Since(t0))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(lat) < 100 {
		t.Fatalf("%d neighbour faults landed during the adoption, want 100 or more", len(lat))
	}
	return lat, reg
}

// TestAdoptConvertsOverItsOwnConnection: an adoption fetches its batches
// over a connection of its own, closed when it is done, and a
// neighbour's faults on the shared one never queue behind them.
func TestAdoptConvertsOverItsOwnConnection(t *testing.T) {
	lat, reg := adoptBesideNeighbour(t)
	slices.Sort(lat)
	t.Logf("%d neighbour faults during the adoption: p50 %v, max %v", len(lat), lat[len(lat)/2], lat[len(lat)-1])
	if p99 := lat[len(lat)*99/100]; p99 >= convertDelay {
		t.Fatalf("neighbour fault p99 %v: faults queued behind the adoption's %v exchanges", p99, convertDelay)
	}
	if total, _ := connections(reg); total != 2 {
		t.Fatalf("%v connections to the home memory server, want 2: the shared one and the adoption's", total)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, active := connections(reg); active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the adoption's connection outlived it")
		}
	}
}
