package agent

import (
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
	"oasis/internal/wire"
)

const probeVM = pagestore.VMID(90)

// phaseHost is a host holding probeVM in one phase, for one table row.
type phaseHost struct {
	a, peer *Agent       // the VM is probed at a; peer is the other host
	c       *wire.Client // a's RPC endpoint, as the manager dials it
}

func (h *phaseHost) phase() phase {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	if mv := h.a.vms[probeVM]; mv != nil {
		return mv.phase
	}
	return gone
}

// waitPhase polls until the VM reaches phase p at h.
func (h *phaseHost) waitPhase(t *testing.T, p phase) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); h.phase() != p; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("vm is %v, never %v", h.phase(), p)
		}
	}
}

// hold orders method at h.a with the VM handed off toward a relay in
// front of the peer, and returns once the hand-off is parked at the
// peer call parkOn. The hand-off finishes when the test ends. RecoverArgs
// also decodes as MigrateArgs, so it serves every hand-off method.
func (h *phaseHost) hold(t *testing.T, method, parkOn string) {
	t.Helper()
	r := startRelay(t, h.peer.Addr(), parkOn)
	c, err := wire.Dial(h.a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Call(method, RecoverArgs{VMID: probeVM, Dest: r.addr, Force: true}, nil) }()
	select {
	case <-r.parked:
	case err := <-done:
		t.Fatalf("%s returned before reaching its peer: %v", method, err)
	}
	t.Cleanup(func() { close(r.release); <-done; c.Close() })
}

// gatedConn stalls a memory server's connections after each read while
// the test holds the gate, so a fetch it is serving hangs until release.
type gatedConn struct {
	net.Conn
	gate *sync.RWMutex
}

func (c gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.gate.RLock()
	c.gate.RUnlock()
	return n, err
}

// enterPhase brings up two hosts with probeVM in phase p at the first.
func enterPhase(t *testing.T, p phase) *phaseHost {
	t.Helper()
	m, agents := startHosts(t, 2)
	h := &phaseHost{a: agents[0], peer: agents[1]}
	var err error
	if h.c, err = wire.Dial(h.a.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.c.Close() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(on *Agent) { must(m.CreateVMOn(on.Name, CreateVMArgs{VMID: probeVM, Alloc: units.MiB})) }
	switch p {
	case staged:
		must(h.c.Call("Agent.ReceiveFull", *hypervisor.NewDescriptor(probeVM, "probe", units.MiB, 1), nil))
	case home, homeLive, homePaused:
		create(h.a)
	case away:
		create(h.a)
		must(m.PartialMigrate(probeVM, h.a.Name, h.peer.Name))
	case partial, quarantined, partialPaused:
		create(h.peer)
		must(m.PartialMigrate(probeVM, h.peer.Name, h.a.Name))
	case partialLive:
		h.adoptStalled(t)
	}
	switch p {
	case quarantined:
		if h.c.Call("Agent.RecoverDegraded", RecoverArgs{VMID: probeVM, Dest: "127.0.0.1:1", Force: true}, nil) == nil {
			t.Fatal("forced promotion to a dead owner succeeded")
		}
	case homeLive:
		h.hold(t, "Agent.FullMigrate", "Agent.ReceiveFull")
	case homePaused:
		h.hold(t, "Agent.PartialMigrate", "Agent.ReceivePartial")
	case partialPaused:
		h.hold(t, "Agent.Reintegrate", "Agent.ReceiveDirty")
	}
	h.waitPhase(t, p)
	return h
}

// adoptStalled makes the VM a partial VM at h.a whose pages live on a
// memory server of the test's own, then orders its adoption with that
// server stalled: the prefetch hangs, holding the VM in partialLive
// until the test ends.
func (h *phaseHost) adoptStalled(t *testing.T) {
	t.Helper()
	gate := new(sync.RWMutex)
	srv := memserver.NewServer(secret, nil)
	srv.SetConnWrapper(func(c net.Conn) net.Conn { return gatedConn{c, gate} })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	im := pagestore.NewImage(units.MiB)
	if err := im.Write(100, page(0x64)); err != nil {
		t.Fatal(err)
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallImage(probeVM, units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	desc := *hypervisor.NewDescriptor(probeVM, "probe", units.MiB, 1)
	if err := h.c.Call("Agent.ReceivePartial", receivePartialArgs{Desc: desc, MemAddr: addr.String()}, nil); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(h.a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	gate.Lock()
	done := make(chan error, 1)
	go func() { done <- c.Call("Agent.AdoptVM", vmArgs{VMID: probeVM}, nil) }()
	t.Cleanup(func() { gate.Unlock(); <-done; c.Close() })
}

// TestPhaseTable drives every lifecycle RPC against a VM in every phase
// through the manager's wire client, and checks each call is accepted
// exactly where the transition table says and leaves the VM in the phase
// it names — a refused call in the phase it found.
func TestPhaseTable(t *testing.T) {
	desc := *hypervisor.NewDescriptor(probeVM, "probe", units.MiB, 1)
	empty, _, err := pagestore.EncodeAll(pagestore.NewImage(units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	writes := map[phase]phase{home: home, homeLive: homeLive, partial: partial, quarantined: quarantined, partialLive: partialLive}
	reads := map[phase]phase{homePaused: homePaused, partialPaused: partialPaused}
	for p := range writes {
		reads[p] = p
	}
	// Each RPC, the phases it accepts and the phase each leaves the VM in.
	// Suspend comes last: accepted, it leaves the host refusing the rest.
	rpcs := []struct {
		method  string
		args    func(h *phaseHost) any
		payload []byte
		accepts map[phase]phase
	}{
		{"CreateVM", func(*phaseHost) any { return CreateVMArgs{VMID: probeVM, Alloc: units.MiB} }, nil,
			map[phase]phase{gone: home}},
		{"ReceiveFull", func(*phaseHost) any { return desc }, nil,
			map[phase]phase{gone: staged, staged: staged, away: staged}},
		{"ReceivePartial", func(h *phaseHost) any {
			return receivePartialArgs{Desc: desc, MemAddr: h.peer.MemServerAddr()}
		}, nil, map[phase]phase{gone: partial, staged: partial}},
		{"ReceiveFullDelta", func(*phaseHost) any { return vmArgs{VMID: probeVM} }, empty,
			map[phase]phase{staged: staged, away: away}},
		{"ActivateFull", func(*phaseHost) any { return vmArgs{VMID: probeVM} }, empty,
			map[phase]phase{staged: home}},
		{"ReceiveDirty", func(*phaseHost) any { return vmArgs{VMID: probeVM} }, empty,
			map[phase]phase{away: home}},
		{"PartialMigrate", func(h *phaseHost) any { return MigrateArgs{VMID: probeVM, Dest: h.peer.Addr()} }, nil,
			map[phase]phase{home: away}},
		{"FullMigrate", func(h *phaseHost) any { return MigrateArgs{VMID: probeVM, Dest: h.peer.Addr()} }, nil,
			map[phase]phase{home: gone}},
		{"AdoptVM", func(*phaseHost) any { return vmArgs{VMID: probeVM} }, nil,
			map[phase]phase{partial: home, quarantined: home}},
		{"Reintegrate", func(h *phaseHost) any { return MigrateArgs{VMID: probeVM, Dest: h.peer.Addr()} }, nil,
			map[phase]phase{partial: gone, quarantined: gone}},
		{"RecoverDegraded", func(h *phaseHost) any {
			return RecoverArgs{VMID: probeVM, Dest: h.peer.Addr(), Force: true}
		}, nil, map[phase]phase{partial: gone, quarantined: gone}},
		{"WritePage", func(*phaseHost) any { return PageArgs{VMID: probeVM, PFN: 40} }, page(0x40), writes},
		{"ReadPage", func(*phaseHost) any { return PageArgs{VMID: probeVM, PFN: 0} }, nil, reads},
		{"Suspend", func(*phaseHost) any { return nil }, nil,
			map[phase]phase{gone: gone, staged: staged, away: away}},
	}
	for from := gone; from <= partialPaused; from++ {
		t.Run(from.String(), func(t *testing.T) {
			// Calls that leave the phase as it was share one host; one that
			// moves the VM gets a host of its own.
			shared := enterPhase(t, from)
			for _, rpc := range rpcs {
				to, accepted := rpc.accepts[from]
				h := shared
				if accepted && to != from {
					h = enterPhase(t, from)
				}
				_, err := h.c.CallPayload("Agent."+rpc.method, rpc.args(h), rpc.payload, nil)
				if accepted != (err == nil) {
					t.Errorf("%s: accepted %v (%v), want %v", rpc.method, err == nil, err, accepted)
				}
				if !accepted {
					to = from
				}
				if got := h.phase(); got != to {
					t.Errorf("%s left the VM %v, want %v", rpc.method, got, to)
				}
			}
		})
	}
}
