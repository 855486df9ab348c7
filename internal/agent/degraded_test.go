package agent

import (
	"bytes"
	"testing"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// fastMemtapResilience swaps memtap's process-wide resilience defaults
// for millisecond-scale ones so breaker trips happen fast, restoring the
// originals when the test ends.
func fastMemtapResilience(t *testing.T) {
	t.Helper()
	saved := memtap.DefaultResilience
	memtap.DefaultResilience = memserver.ResilientConfig{
		MaxRetries:       2,
		MutatingRetries:  2,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		DialTimeout:      200 * time.Millisecond,
		OpTimeout:        time.Second,
	}
	t.Cleanup(func() { memtap.DefaultResilience = saved })
}

// waitDegraded polls host stats until the VM reports degraded, driving a
// page read each round to make the memtap burn its retries against the
// dead server and trip the breaker.
func waitDegraded(t *testing.T, m *Manager, host string, id pagestore.VMID) {
	t.Helper()
	for i := 0; i < 200; i++ {
		m.ReadPage(host, id, 20) // expected to fail; opens the breaker
		st, err := m.HostStats(host)
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range st.VMs {
			if vi.VMID == id && vi.Degraded {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("VM never reported degraded after memory-server death")
}

// TestDegradedVMForcedPromotion walks the full degradation ladder end to
// end over real TCP: partial-migrate a VM, dirty pages remotely, kill
// the owner's memory server for good, watch the memtap report the VM
// degraded, and have the manager force-promote it home. The VM must
// resume on the owner with the retained image plus the remote dirty
// delta — no state loss, no memory server needed.
func TestDegradedVMForcedPromotion(t *testing.T) {
	fastMemtapResilience(t)
	m, agents := startHosts(t, 2)
	home, cons := agents[0], agents[1]
	const id = pagestore.VMID(4001)

	if err := m.CreateVMOn(home.Name, CreateVMArgs{VMID: id, Name: "deg", Alloc: 4 * units.MiB, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(home.Name, id, 10, page(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(home.Name, id, 20, page(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(id, home.Name, cons.Name); err != nil {
		t.Fatal(err)
	}
	// Fault one page over the healthy path, then dirty another locally:
	// the dirty page is the state only the consolidation host holds.
	if got, err := m.ReadPage(cons.Name, id, 10); err != nil || got[0] != 0x11 {
		t.Fatalf("fault page 10: %v %x", err, got[:1])
	}
	if err := m.WritePage(cons.Name, id, 30, page(0x33)); err != nil {
		t.Fatal(err)
	}

	// The memory server dies for good (host loss, not a restart).
	home.mem.Close()
	waitDegraded(t, m, cons.Name, id)

	deg, err := m.DegradedVMs()
	if err != nil {
		t.Fatal(err)
	}
	if deg[id] != cons.Name {
		t.Fatalf("DegradedVMs = %v, want %v on %s", deg, id, cons.Name)
	}

	// Force-promote home: wake the owner, push the dirty delta, resume.
	if err := m.RecoverDegraded(id, cons.Name, home.Name, false); err != nil {
		t.Fatalf("RecoverDegraded: %v", err)
	}

	// The consolidation host no longer runs the VM; the owner does, in
	// full, with retained state + the remote dirty delta intact.
	st, err := m.HostStats(cons.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 0 {
		t.Fatalf("consolidation host still holds VMs: %+v", st.VMs)
	}
	st, err = m.HostStats(home.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Owner || st.VMs[0].Away || st.VMs[0].Partial {
		t.Fatalf("owner stats after promotion: %+v", st.VMs)
	}
	for pfn, want := range map[pagestore.PFN]byte{10: 0x11, 20: 0x22, 30: 0x33} {
		got, err := m.ReadPage(home.Name, id, pfn)
		if err != nil {
			t.Fatalf("read pfn %d after promotion: %v", pfn, err)
		}
		if !bytes.Equal(got, page(want)) {
			t.Fatalf("pfn %d = %x, want %x after promotion", pfn, got[0], want)
		}
	}
}

// TestRecoverDegradedRefusesHealthyVM: without force, promotion of a
// VM whose memory-server path is healthy must be refused.
func TestRecoverDegradedRefusesHealthyVM(t *testing.T) {
	fastMemtapResilience(t)
	m, agents := startHosts(t, 2)
	home, cons := agents[0], agents[1]
	const id = pagestore.VMID(4002)
	if err := m.CreateVMOn(home.Name, CreateVMArgs{VMID: id, Name: "ok", Alloc: units.MiB, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(id, home.Name, cons.Name); err != nil {
		t.Fatal(err)
	}
	if err := m.RecoverDegraded(id, cons.Name, home.Name, false); err == nil {
		t.Fatal("RecoverDegraded promoted a healthy VM without force")
	}
	// With force it is an operator-ordered promotion and must work.
	if err := m.RecoverDegraded(id, cons.Name, home.Name, true); err != nil {
		t.Fatalf("forced promotion of healthy VM: %v", err)
	}
}

// TestQuarantineWhenOwnerUnreachable: if the forced promotion itself
// fails (owner gone too), the VM is quarantined — resident, flagged,
// excluded from further automatic recovery sweeps.
func TestQuarantineWhenOwnerUnreachable(t *testing.T) {
	fastMemtapResilience(t)
	m, agents := startHosts(t, 2)
	home, cons := agents[0], agents[1]
	const id = pagestore.VMID(4003)
	if err := m.CreateVMOn(home.Name, CreateVMArgs{VMID: id, Name: "q", Alloc: units.MiB, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(id, home.Name, cons.Name); err != nil {
		t.Fatal(err)
	}
	// Owner host dies entirely: RPC and memory server both gone.
	deadAddr := home.Addr()
	home.Close()
	waitDegraded(t, m, cons.Name, id)

	// Drive the consolidation agent's handler directly (the manager's
	// path would fail earlier at Wake, which is also correct — but the
	// quarantine decision lives in the agent).
	if _, _, err := cons.handleRecoverDegraded(RecoverArgs{VMID: id, Dest: deadAddr}, nil); err == nil {
		t.Fatal("promotion to a dead owner succeeded")
	}
	st, err := m.HostStats(cons.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Quarantined {
		t.Fatalf("VM not quarantined: %+v", st.VMs)
	}
	deg, err := m.DegradedVMs()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := deg[id]; ok {
		t.Fatal("quarantined VM still offered for automatic recovery")
	}
}
