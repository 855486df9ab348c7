package agent

import (
	"bytes"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

var secret = []byte("agent-test-secret")

// startHosts brings up n agents on loopback plus a manager wired to them,
// named host-0..host-n-1.
func startHosts(t *testing.T, n int) (*Manager, []*Agent) {
	t.Helper()
	m := NewManager()
	t.Cleanup(m.Close)
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		a := New(hostName(i), secret, nil)
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		if err := m.AddHost(a.Name, a.Addr()); err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	return m, agents
}

func hostName(i int) string { return string(rune('A'+i)) + "-host" }

func page(b byte) []byte {
	return bytes.Repeat([]byte{b}, int(units.PageSize))
}

func TestCreateAndTouchVM(t *testing.T) {
	m, _ := startHosts(t, 1)
	host, err := m.CreateVM(CreateVMArgs{VMID: 1001, Name: "vm1", Alloc: 8 * units.MiB, VCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(host, 1001, 10, page(0x42)); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadPage(host, 1001, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x42 {
		t.Fatalf("page contents = %x", got[0])
	}
	st, err := m.HostStats(host)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Owner || st.VMs[0].Partial {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCreateVMValidation(t *testing.T) {
	m, _ := startHosts(t, 1)
	if _, err := m.CreateVM(CreateVMArgs{VMID: 1, Alloc: 0}); err == nil {
		t.Error("zero allocation accepted")
	}
	if _, err := m.CreateVM(CreateVMArgs{VMID: 2, Alloc: units.MiB}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateVM(CreateVMArgs{VMID: 2, Alloc: units.MiB}); err == nil {
		t.Error("duplicate vmid accepted")
	}
}

// TestPartialMigrationLifecycle exercises the full §4.2 flow over real
// TCP: create, dirty memory, partially migrate, fault pages on the
// consolidation host, suspend the home, dirty more pages remotely,
// reintegrate, and verify the merged state at home.
func TestPartialMigrationLifecycle(t *testing.T) {
	m, agents := startHosts(t, 2)
	home, cons := agents[0].Name, agents[1].Name

	if _, err := m.CreateVM(CreateVMArgs{VMID: 7, Name: "desk", Alloc: 16 * units.MiB, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	// CreateVM picks the emptiest host; find where it landed.
	vmHost := home
	if st, _ := m.HostStats(home); len(st.VMs) == 0 {
		vmHost, cons = cons, home
	}

	// The guest dirties some memory while running at home.
	for pfn := pagestore.PFN(100); pfn < 110; pfn++ {
		if err := m.WritePage(vmHost, 7, pfn, page(byte(pfn))); err != nil {
			t.Fatal(err)
		}
	}

	// Consolidate: partial migration to the other host.
	if err := m.PartialMigrate(7, vmHost, cons); err != nil {
		t.Fatal(err)
	}
	// The home can now suspend; its memory server keeps serving.
	if err := m.Suspend(vmHost); err != nil {
		t.Fatal(err)
	}

	// Touch pages on the consolidation host: they fault in from the
	// (sleeping) home's memory server.
	got, err := m.ReadPage(cons, 7, 105)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 105 {
		t.Fatalf("faulted page contents = %x", got[0])
	}
	st, err := m.HostStats(cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Partial || st.VMs[0].Faults == 0 {
		t.Fatalf("cons stats = %+v", st.VMs)
	}

	// The partial VM dirties state on the consolidation host.
	if err := m.WritePage(cons, 7, 200, page(0xCC)); err != nil {
		t.Fatal(err)
	}

	// The user returns: wake the home and reintegrate.
	if err := m.Wake(vmHost); err != nil {
		t.Fatal(err)
	}
	if err := m.Reintegrate(7, cons, vmHost); err != nil {
		t.Fatal(err)
	}

	// Home has the merged state: original pages plus remote dirty state.
	got, err = m.ReadPage(vmHost, 7, 105)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 105 {
		t.Fatal("original page lost after reintegration")
	}
	got, err = m.ReadPage(vmHost, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xCC {
		t.Fatal("remote dirty page not reintegrated")
	}
	// The consolidation host released the VM.
	st, err = m.HostStats(cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 0 {
		t.Fatalf("cons still holds %d VMs", len(st.VMs))
	}
}

func TestFullMigrationTransfersOwnership(t *testing.T) {
	m, agents := startHosts(t, 2)
	if _, err := m.CreateVM(CreateVMArgs{VMID: 9, Name: "active", Alloc: 8 * units.MiB, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	src := agents[0].Name
	if st, _ := m.HostStats(src); len(st.VMs) == 0 {
		src = agents[1].Name
	}
	dst := agents[0].Name
	if dst == src {
		dst = agents[1].Name
	}
	if err := m.WritePage(src, 9, 3, page(0x77)); err != nil {
		t.Fatal(err)
	}
	if err := m.FullMigrate(9, src, dst); err != nil {
		t.Fatal(err)
	}
	// Destination owns and runs the VM with its state.
	got, err := m.ReadPage(dst, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x77 {
		t.Fatal("memory state lost in full migration")
	}
	st, err := m.HostStats(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Owner {
		t.Fatalf("dst stats = %+v", st.VMs)
	}
	// Source is empty and can suspend.
	if err := m.Suspend(src); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendRefusedWithResidentVMs(t *testing.T) {
	m, agents := startHosts(t, 1)
	if _, err := m.CreateVM(CreateVMArgs{VMID: 5, Alloc: units.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := m.Suspend(agents[0].Name); err == nil {
		t.Fatal("suspend with a resident VM accepted")
	}
}

func TestSuspendedHostRejectsOps(t *testing.T) {
	m, agents := startHosts(t, 2)
	name := agents[0].Name
	if err := m.Suspend(name); err != nil {
		t.Fatal(err)
	}
	// Control-plane VM operations must fail while suspended.
	h, err := m.host(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.CreateVM", CreateVMArgs{VMID: 1, Alloc: units.MiB}, nil); err == nil {
		t.Fatal("create on suspended host accepted")
	}
	if err := m.Wake(name); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.CreateVM", CreateVMArgs{VMID: 1, Alloc: units.MiB}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialSecondUpload(t *testing.T) {
	m, agents := startHosts(t, 2)
	if _, err := m.CreateVM(CreateVMArgs{VMID: 3, Alloc: 8 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	src := agents[0].Name
	if st, _ := m.HostStats(src); len(st.VMs) == 0 {
		src = agents[1].Name
	}
	dst := agents[0].Name
	if dst == src {
		dst = agents[1].Name
	}
	if err := m.WritePage(src, 3, 21, page(1)); err != nil {
		t.Fatal(err)
	}
	// First consolidation and return.
	if err := m.PartialMigrate(3, src, dst); err != nil {
		t.Fatal(err)
	}
	if err := m.Reintegrate(3, dst, src); err != nil {
		t.Fatal(err)
	}
	firstUploaded := agentByName(agents, src).mem.StatsSnapshot().PagesUploaded

	// Dirty one page at home, consolidate again: the upload is a diff.
	if err := m.WritePage(src, 3, 22, page(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(3, src, dst); err != nil {
		t.Fatal(err)
	}
	secondUploaded := agentByName(agents, src).mem.StatsSnapshot().PagesUploaded - firstUploaded
	if secondUploaded <= 0 || secondUploaded > 4 {
		t.Fatalf("second upload moved %d pages, want a small diff", secondUploaded)
	}
	// And the diff state is visible on the consolidation host.
	got, err := m.ReadPage(dst, 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatal("diff-uploaded page not served")
	}
}

func agentByName(agents []*Agent, name string) *Agent {
	for _, a := range agents {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func TestManagerUnknownHost(t *testing.T) {
	m, _ := startHosts(t, 1)
	if err := m.Suspend("nope"); err == nil {
		t.Error("unknown host accepted")
	}
	if err := m.PartialMigrate(1, "nope", "also-nope"); err == nil {
		t.Error("unknown migration hosts accepted")
	}
}

// TestLiveMigrationWithConcurrentWriter runs pre-copy live migration
// while the guest keeps dirtying memory. Writes acknowledged by the
// source must never be lost: they either make a pre-copy round or the
// stop-and-copy set; writes during the pause are refused.
func TestLiveMigrationWithConcurrentWriter(t *testing.T) {
	m, agents := startHosts(t, 2)
	if err := m.CreateVMOn(agents[0].Name, CreateVMArgs{VMID: 11, Alloc: 16 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	src, dst := agents[0].Name, agents[1].Name
	// Seed enough state for a multi-round migration.
	for pfn := pagestore.PFN(100); pfn < 400; pfn++ {
		if err := m.WritePage(src, 11, pfn, page(byte(pfn%200+1))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- m.FullMigrate(11, src, dst) }()

	// The guest writes sequentially until the migration pauses or
	// completes; every acknowledged write must survive.
	acked := 0
	for i := 0; i < 100000; i++ {
		pfn := pagestore.PFN(500 + i%50)
		if err := m.WritePage(src, 11, pfn, page(byte(i%250+1))); err != nil {
			break // paused or already switched over
		}
		acked = i + 1
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Replay the acknowledged write sequence to compute expected final
	// values, then verify them at the destination.
	want := map[pagestore.PFN]byte{}
	for i := 0; i < acked; i++ {
		want[pagestore.PFN(500+i%50)] = byte(i%250 + 1)
	}
	for pfn, wv := range want {
		got, err := m.ReadPage(dst, 11, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != wv {
			t.Fatalf("pfn %d: acknowledged write lost (got %x want %x)", pfn, got[0], wv)
		}
	}
	// Original state survived too.
	got, err := m.ReadPage(dst, 11, 250)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != byte(250%200+1) {
		t.Fatal("seeded page corrupted by live migration")
	}
	// The source no longer has the VM.
	if _, err := m.ReadPage(src, 11, 250); err == nil {
		t.Fatal("source still serves the VM after live migration")
	}
}

func TestLiveMigrationPausedWritesRefused(t *testing.T) {
	m, agents := startHosts(t, 2)
	if err := m.CreateVMOn(agents[0].Name, CreateVMArgs{VMID: 12, Alloc: units.MiB}); err != nil {
		t.Fatal(err)
	}
	// A quiet VM migrates in one round plus switch-over.
	if err := m.FullMigrate(12, agents[0].Name, agents[1].Name); err != nil {
		t.Fatal(err)
	}
	st, err := m.HostStats(agents[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Owner {
		t.Fatalf("dst stats after quiet live migration: %+v", st.VMs)
	}
}

// TestMigrationToDeadPeerAborts: a live migration to an unreachable
// destination must fail cleanly and leave the VM running at the source.
func TestMigrationToDeadPeerAborts(t *testing.T) {
	m, agents := startHosts(t, 1)
	src := agents[0].Name
	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 13, Alloc: units.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(src, 13, 30, page(0x13)); err != nil {
		t.Fatal(err)
	}
	// Register a dead host address.
	h, err := m.host(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.FullMigrate", MigrateArgs{VMID: 13, Dest: "127.0.0.1:1"}, nil); err == nil {
		t.Fatal("migration to dead peer succeeded")
	}
	// The VM still runs at the source and accepts writes (not stuck
	// migrating or paused).
	if err := m.WritePage(src, 13, 31, page(0x14)); err != nil {
		t.Fatalf("VM unusable after aborted migration: %v", err)
	}
	got, err := m.ReadPage(src, 13, 30)
	if err != nil || got[0] != 0x13 {
		t.Fatalf("state lost after aborted migration: %v %x", err, got[0])
	}
	// A retry to a live destination works.
	b := New("B-late", secret, nil)
	if err := b.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := m.AddHost(b.Name, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := m.FullMigrate(13, src, b.Name); err != nil {
		t.Fatalf("retry after abort failed: %v", err)
	}
}

// TestPartialMigrateToDeadPeer: the descriptor push fails, but the memory
// upload already happened — the VM must remain a resident full VM.
func TestPartialMigrateToDeadPeer(t *testing.T) {
	m, agents := startHosts(t, 1)
	src := agents[0].Name
	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 14, Alloc: units.MiB}); err != nil {
		t.Fatal(err)
	}
	h, err := m.host(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.PartialMigrate", MigrateArgs{VMID: 14, Dest: "127.0.0.1:1"}, nil); err == nil {
		t.Fatal("partial migration to dead peer succeeded")
	}
	// Still resident and writable.
	if err := m.WritePage(src, 14, 40, page(1)); err != nil {
		t.Fatalf("VM unusable after failed partial migration: %v", err)
	}
}

// TestPostCopyMigration exercises §2's other live-migration family: the
// VM resumes at the destination immediately (as a partial VM) and its
// memory is pushed afterwards; the destination ends up the owner with the
// complete image and the source fully freed.
func TestPostCopyMigration(t *testing.T) {
	m, agents := startHosts(t, 2)
	src, dst := agents[0].Name, agents[1].Name
	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 21, Alloc: 4 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(200); pfn < 220; pfn++ {
		if err := m.WritePage(src, 21, pfn, page(byte(pfn%250+1))); err != nil {
			t.Fatal(err)
		}
	}
	h, err := m.host(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.host(dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.client.Call("Agent.PostCopyMigrate", MigrateArgs{VMID: 21, Dest: d.addr}, nil); err != nil {
		t.Fatal(err)
	}
	// Destination owns a full VM with the complete memory image.
	st, err := m.HostStats(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Owner || st.VMs[0].Partial {
		t.Fatalf("dst stats after post-copy: %+v", st.VMs)
	}
	for pfn := pagestore.PFN(200); pfn < 220; pfn++ {
		got, err := m.ReadPage(dst, 21, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(pfn%250+1) {
			t.Fatalf("pfn %d lost in post-copy", pfn)
		}
	}
	// Source is completely freed (VM and memory-server image).
	if _, err := m.ReadPage(src, 21, 200); err == nil {
		t.Fatal("source still serves the VM")
	}
	if agents[0].mem.Store().Len() != 0 {
		t.Fatal("source memory server still holds an image")
	}
	// The adopted VM is writable at the destination.
	if err := m.WritePage(dst, 21, 300, page(0x30)); err != nil {
		t.Fatal(err)
	}
}

// TestConvertedVMGoesHome takes a VM through §3.2's convert in place and
// back: partially migrated to a consolidation host, its owner suspended,
// it is adopted there as a full VM, and once the owner wakes a full
// migration returns it. The owner's retained copy must not refuse the
// VM's return; it is replaced, with its memory-server image.
func TestConvertedVMGoesHome(t *testing.T) {
	m, agents := startHosts(t, 2)
	home, cons := agents[0].Name, agents[1].Name
	const id = pagestore.VMID(1000)
	if err := m.CreateVMOn(home, CreateVMArgs{VMID: id, Alloc: 4 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(100); pfn < 110; pfn++ {
		if err := m.WritePage(home, id, pfn, page(byte(pfn))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PartialMigrate(id, home, cons); err != nil {
		t.Fatal(err)
	}
	if err := m.Suspend(home); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(cons, id, 110, page(0xC0)); err != nil {
		t.Fatal(err)
	}
	if err := m.AdoptVM(id, cons); err != nil {
		t.Fatal(err)
	}
	if err := m.Wake(home); err != nil {
		t.Fatal(err)
	}
	if err := m.FullMigrate(id, cons, home); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(100); pfn <= 110; pfn++ {
		want := byte(pfn)
		if pfn == 110 {
			want = 0xC0
		}
		got, err := m.ReadPage(home, id, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("pfn %d = %x after the return, want %x", pfn, got[0], want)
		}
	}
	var resident []string
	for _, a := range agents {
		st, err := m.HostStats(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, vi := range st.VMs {
			if vi.VMID == id && !vi.Away {
				resident = append(resident, a.Name)
			}
		}
	}
	if len(resident) != 1 || resident[0] != home {
		t.Fatalf("vm %04d resident on %v, want only %s", id, resident, home)
	}
	if agents[0].mem.Store().Len() != 0 {
		t.Fatal("the owner's memory server still holds the replaced copy's image")
	}
}
