package agent

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
	"oasis/internal/wire"
)

// relay is a wire server standing in front of a real agent: it forwards
// the agent-to-agent methods unchanged, records what crossed it, and can
// park one method until told to go on — which holds a hand-off open at
// exactly the point where its peer has been asked to take over.
type relay struct {
	addr string

	mu         sync.Mutex
	calls      map[string]int
	maxPayload int

	parked  chan struct{} // closed when the parked method first arrives
	release chan struct{} // close to let it through
}

func startRelay(t *testing.T, target, parkOn string) *relay {
	t.Helper()
	r := &relay{calls: map[string]int{}, parked: make(chan struct{}), release: make(chan struct{})}
	to, err := wire.Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(nil)
	for _, method := range []string{"ReceivePartial", "ReceiveFull", "ReceiveFullDelta", "ActivateFull", "ReceiveDirty", "AdoptVM"} {
		method := "Agent." + method
		wire.Handle(srv, method, func(params json.RawMessage, payload []byte) (any, []byte, error) {
			r.mu.Lock()
			r.calls[method]++
			r.maxPayload = max(r.maxPayload, len(payload))
			first := r.calls[method] == 1
			r.mu.Unlock()
			if method == parkOn && first {
				close(r.parked)
				<-r.release
			}
			var result json.RawMessage
			reply, err := to.CallPayload(method, params, payload, &result)
			return result, reply, err
		})
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = addr.String()
	t.Cleanup(func() { srv.Close(); to.Close() })
	return r
}

// TestNoAcknowledgedWriteLostDuringHandoff holds each hand-off open at
// the moment its peer has been asked to take the VM over, and writes to
// the VM at the host handing it off. The write may be refused (§4.2: the
// guest is paused); if it is acknowledged, it must be there when the VM
// runs at the peer. It used to be acknowledged and lost.
func TestNoAcknowledgedWriteLostDuringHandoff(t *testing.T) {
	const id = pagestore.VMID(77)
	for _, tc := range []struct {
		name   string
		method string // ordered at the host the VM runs on
		parkOn string // the peer call that takes the VM over
		away   bool   // the VM starts consolidated on the other host
	}{
		{"Reintegrate", "Agent.Reintegrate", "Agent.ReceiveDirty", true},
		{"RecoverDegraded", "Agent.RecoverDegraded", "Agent.ReceiveDirty", true},
		{"PartialMigrate", "Agent.PartialMigrate", "Agent.ReceivePartial", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, agents := startHosts(t, 2)
			from, to := agents[0], agents[1] // the hand-off under test goes from → to
			if err := m.CreateVMOn(to.Name, CreateVMArgs{VMID: id, Alloc: 4 * units.MiB}); err != nil {
				t.Fatal(err)
			}
			if tc.away {
				if err := m.PartialMigrate(id, to.Name, from.Name); err != nil {
					t.Fatal(err)
				}
			} else {
				from, to = to, from
			}
			if err := m.WritePage(from.Name, id, 40, page(0x01)); err != nil {
				t.Fatal(err)
			}

			r := startRelay(t, to.Addr(), tc.parkOn)
			c, err := wire.Dial(from.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			done := make(chan error, 1)
			go func() {
				done <- c.Call(tc.method, RecoverArgs{VMID: id, Dest: r.addr, Force: true}, nil)
			}()
			select {
			case <-r.parked:
			case err := <-done:
				t.Fatalf("hand-off returned before reaching its peer: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("hand-off never reached its peer")
			}

			// The peer has the snapshot in hand and is about to run the VM.
			acked := m.WritePage(from.Name, id, 40, page(0x02)) == nil
			close(r.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			got, err := m.ReadPage(to.Name, id, 40)
			if err != nil {
				t.Fatal(err)
			}
			want := byte(0x01)
			if acked {
				want = 0x02
			}
			if got[0] != want {
				t.Fatalf("write acknowledged=%v during the hand-off, but the VM now reads %#x, want %#x", acked, got[0], want)
			}
			// The VM is writable where it runs now, and a VM that comes
			// back later is writable again too.
			if err := m.WritePage(to.Name, id, 41, page(0x03)); err != nil {
				t.Fatalf("VM not writable after the hand-off: %v", err)
			}
			if !tc.away {
				if err := m.Reintegrate(id, to.Name, from.Name); err != nil {
					t.Fatal(err)
				}
				if err := m.WritePage(from.Name, id, 42, page(0x04)); err != nil {
					t.Fatalf("VM not writable after it came home: %v", err)
				}
			}
		})
	}
}

// TestFailedHandoffLeavesVMWritable: a reintegration whose owner cannot
// be reached fails, and the partial VM keeps running — and accepting
// writes — on the consolidation host; a second attempt is not refused as
// "already migrating".
func TestFailedHandoffLeavesVMWritable(t *testing.T) {
	m, agents := startHosts(t, 2)
	home, cons := agents[0], agents[1]
	const id = pagestore.VMID(78)
	if err := m.CreateVMOn(home.Name, CreateVMArgs{VMID: id, Alloc: units.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(id, home.Name, cons.Name); err != nil {
		t.Fatal(err)
	}
	h, err := m.host(cons.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.Reintegrate", MigrateArgs{VMID: id, Dest: "127.0.0.1:1"}, nil); err == nil {
		t.Fatal("reintegration to a dead owner succeeded")
	}
	if err := m.WritePage(cons.Name, id, 50, page(0x05)); err != nil {
		t.Fatalf("partial VM unusable after failed reintegration: %v", err)
	}
	if err := m.Reintegrate(id, cons.Name, home.Name); err != nil {
		t.Fatalf("retry after failed reintegration: %v", err)
	}
	if got, err := m.ReadPage(home.Name, id, 50); err != nil || got[0] != 0x05 {
		t.Fatalf("write made between the attempts did not come home: %v %x", err, got[:1])
	}
}

// TestOneEntryPerVMID: an inbound live migration's staged copy is its
// VM's one entry on the host. CreateVM of the same id is refused; a
// second ReceiveFull, or a ReceivePartial, replaces the staged copy; and
// ActivateFull switches the VM over with no staged copy left behind.
// CreateVM used to succeed beside the staged copy, which then could
// never be activated.
func TestOneEntryPerVMID(t *testing.T) {
	m, agents := startHosts(t, 2)
	a, peer := agents[0], agents[1]
	c, err := wire.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const id, other = pagestore.VMID(7), pagestore.VMID(8)
	desc := func(id pagestore.VMID, alloc units.Bytes) hypervisor.Descriptor {
		return *hypervisor.NewDescriptor(id, "inbound", alloc, 1)
	}

	if err := c.Call("Agent.ReceiveFull", desc(id, units.MiB), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("Agent.CreateVM", CreateVMArgs{VMID: id, Alloc: units.MiB}, nil); err == nil {
		t.Fatal("CreateVM accepted beside a staged inbound migration of the same VM")
	}
	// An abandoned migration's copy gives way to a new one, here of a
	// larger VM: pfn 300 exists only in the second.
	if err := c.Call("Agent.ReceiveFull", desc(id, 2*units.MiB), nil); err != nil {
		t.Fatal(err)
	}
	im := pagestore.NewImage(2 * units.MiB)
	if err := im.Write(300, page(0x07)); err != nil {
		t.Fatal(err)
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallPayload("Agent.ActivateFull", vmArgs{VMID: id}, snap, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadPage(a.Name, id, 300); err != nil || got[0] != 0x07 {
		t.Fatalf("activated VM reads %v (%v), want the second migration's page", got[:min(len(got), 1)], err)
	}

	// A partial VM replaces a staged copy too, which then cannot be
	// activated.
	if err := c.Call("Agent.ReceiveFull", desc(other, units.MiB), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("Agent.ReceivePartial", receivePartialArgs{Desc: desc(other, units.MiB), MemAddr: peer.MemServerAddr()}, nil); err != nil {
		t.Fatal(err)
	}
	empty, _, err := pagestore.EncodeAll(pagestore.NewImage(units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallPayload("Agent.ActivateFull", vmArgs{VMID: other}, empty, nil); err == nil {
		t.Fatal("ActivateFull switched over a VM that runs here as a partial VM")
	}

	st, err := m.HostStats(a.Name)
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	entries := len(a.vms)
	a.mu.Unlock()
	if len(st.VMs) != 2 || entries != 2 {
		t.Fatalf("host lists %v with %d entries, want vm 0007 owned and vm 0008 partial", st.VMs, entries)
	}
	for _, vi := range st.VMs {
		if vi.Owner != (vi.VMID == id) || vi.Partial != (vi.VMID == other) {
			t.Fatalf("vm %04d: owner %v, partial %v", vi.VMID, vi.Owner, vi.Partial)
		}
	}
}

// TestFullMigrateChunksLargeImage: a 64 MiB VM whose snapshot is several
// times the chunk budget full-migrates as a stage call plus chunks, no
// frame above the bound, and lands byte-identical.
func TestFullMigrateChunksLargeImage(t *testing.T) {
	m, agents := startHosts(t, 2)
	src, dst := agents[0], agents[1]
	const id = pagestore.VMID(79)
	if err := m.CreateVMOn(src.Name, CreateVMArgs{VMID: id, Alloc: 64 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	// 12 MiB of incompressible pages spread over the allocation: three
	// chunks at least.
	rng := rand.New(rand.NewSource(79))
	want := map[pagestore.PFN][]byte{}
	src.mu.Lock()
	im := src.vms[id].image
	src.mu.Unlock()
	for i := 0; i < 3072; i++ {
		pfn := pagestore.PFN(i * 5)
		p := make([]byte, units.PageSize)
		rng.Read(p)
		want[pfn] = p
		if err := im.Write(pfn, p); err != nil {
			t.Fatal(err)
		}
	}

	r := startRelay(t, dst.Addr(), "")
	h, err := m.host(src.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.FullMigrate", MigrateArgs{VMID: id, Dest: r.addr}, nil); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	calls, maxPayload := r.calls, r.maxPayload
	r.mu.Unlock()
	if calls["Agent.ReceiveFull"] != 1 || calls["Agent.ActivateFull"] != 1 || calls["Agent.ReceiveFullDelta"] < 3 {
		t.Fatalf("calls = %v, want one stage, >= 3 chunks, one activation", calls)
	}
	if maxPayload > memserver.DefaultChunkBytes || maxPayload > wire.MaxPayload {
		t.Fatalf("largest frame payload %d exceeds the chunk budget %d", maxPayload, memserver.DefaultChunkBytes)
	}
	for pfn, p := range want {
		got, err := m.ReadPage(dst.Name, id, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("pfn %d differs after chunked full migration", pfn)
		}
	}
	if got, err := m.ReadPage(dst.Name, id, 1); err != nil || !bytes.Equal(got, make([]byte, units.PageSize)) {
		t.Fatalf("untouched page not zero at the destination: %v", err)
	}
	if _, err := m.ReadPage(src.Name, id, 0); err == nil {
		t.Fatal("source still serves the VM")
	}
}
