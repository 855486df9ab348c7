package agent

import (
	"testing"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// TestPooledTransportPostCopy runs the post-copy flow with the parallel
// page-transport layer turned on at the destination: faults and the
// adoption prefetch travel over 4 pooled connections with 4 pipelined
// streams, and the adopted VM must be byte-identical to the serial
// outcome.
func TestPooledTransportPostCopy(t *testing.T) {
	m, agents := startHosts(t, 2)
	src, dst := agents[0].Name, agents[1].Name
	agents[1].SetTransport(TransportConfig{PoolSize: 4, PrefetchStreams: 4})

	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 31, Alloc: 4 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(100); pfn < 160; pfn++ {
		if err := m.WritePage(src, 31, pfn, page(byte(pfn%250+1))); err != nil {
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
	if err := h.client.Call("Agent.PostCopyMigrate", MigrateArgs{VMID: 31, Dest: d.addr}, nil); err != nil {
		t.Fatal(err)
	}
	st, err := m.HostStats(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.VMs) != 1 || !st.VMs[0].Owner || st.VMs[0].Partial {
		t.Fatalf("dst stats after pooled post-copy: %+v", st.VMs)
	}
	for pfn := pagestore.PFN(100); pfn < 160; pfn++ {
		got, err := m.ReadPage(dst, 31, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(pfn%250+1) {
			t.Fatalf("pfn %d corrupted through pooled transport", pfn)
		}
	}
	if agents[0].mem.Store().Len() != 0 {
		t.Fatal("source memory server still holds an image")
	}
}

// TestStreamedUploadPartialLifecycle runs the detach direction with the
// parallel pipeline turned all the way up: sharded snapshot encoding plus
// chunked streaming uploads to the source's own memory server, first the
// full image, then (after reintegration and a re-detach) the
// differential upload — and the partial VM's faults must see exactly the
// pages the serial path would have uploaded.
func TestStreamedUploadPartialLifecycle(t *testing.T) {
	m, agents := startHosts(t, 2)
	for _, a := range agents {
		a.SetTransport(TransportConfig{PoolSize: 2, PrefetchStreams: 2, UploadStreams: 4})
	}
	src, dst := agents[0].Name, agents[1].Name
	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 33, Alloc: 8 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(50); pfn < 90; pfn++ {
		if err := m.WritePage(src, 33, pfn, page(byte(pfn))); err != nil {
			t.Fatal(err)
		}
	}
	// Detach: the image travels to the memory server over 4 upload
	// streams; faults at the destination must read it back intact.
	if err := m.PartialMigrate(33, src, dst); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []pagestore.PFN{50, 71, 89} {
		got, err := m.ReadPage(dst, 33, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(pfn) {
			t.Fatalf("pfn %d = %x through streamed upload", pfn, got[0])
		}
	}
	// Home again, dirty one page, re-detach: this time only the delta
	// streams (differential chunked upload).
	if err := m.WritePage(dst, 33, 60, page(0xCD)); err != nil {
		t.Fatal(err)
	}
	if err := m.Reintegrate(33, dst, src); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(src, 33, 61, page(0xEF)); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(33, src, dst); err != nil {
		t.Fatal(err)
	}
	for pfn, want := range map[pagestore.PFN]byte{60: 0xCD, 61: 0xEF, 70: 70} {
		got, err := m.ReadPage(dst, 33, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("pfn %d = %x after differential streamed upload, want %x", pfn, got[0], want)
		}
	}
}

// startFabric brings up n standalone memory-server daemons sharing the
// agents' secret — the rack's shard fabric.
func startFabric(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := memserver.NewServer(secret, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr.String()
	}
	return addrs
}

// TestShardedTransportPartialLifecycle detaches to a 3-backend, 2-replica
// shard fabric instead of the source's own memory server: the image
// partitions across the fabric, the destination memtap routes faults by
// placement, dirty state reintegrates home, and a differential re-detach
// flows through the same fabric.
func TestShardedTransportPartialLifecycle(t *testing.T) {
	m, agents := startHosts(t, 2)
	backends := startFabric(t, 3)
	for _, a := range agents {
		a.SetTransport(TransportConfig{
			PoolSize:        2,
			PrefetchStreams: 2,
			UploadStreams:   2,
			Backends:        backends,
			Replicas:        2,
		})
	}
	src, dst := agents[0].Name, agents[1].Name
	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 34, Alloc: 8 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(40); pfn < 120; pfn++ {
		if err := m.WritePage(src, 34, pfn, page(byte(pfn%250+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PartialMigrate(34, src, dst); err != nil {
		t.Fatal(err)
	}
	// The source's own memory server holds nothing; the fabric does.
	if agents[0].mem.Store().Len() != 0 {
		t.Fatal("sharded detach still uploaded to the host-local memory server")
	}
	for pfn := pagestore.PFN(40); pfn < 120; pfn += 7 {
		got, err := m.ReadPage(dst, 34, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(pfn%250+1) {
			t.Fatalf("pfn %d = %x through the shard fabric", pfn, got[0])
		}
	}
	// Dirty a page at the consolidation host, reintegrate, re-detach: the
	// second upload is a differential through the fabric.
	if err := m.WritePage(dst, 34, 80, page(0xCD)); err != nil {
		t.Fatal(err)
	}
	if err := m.Reintegrate(34, dst, src); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(src, 34, 81, page(0xEF)); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialMigrate(34, src, dst); err != nil {
		t.Fatal(err)
	}
	for pfn, want := range map[pagestore.PFN]byte{80: 0xCD, 81: 0xEF, 90: 91} {
		got, err := m.ReadPage(dst, 34, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("pfn %d = %x after differential fabric upload, want %x", pfn, got[0], want)
		}
	}
}

// TestPooledTransportPartialLifecycle checks the on-demand fault path of
// a partial VM whose agent runs the pooled transport, including
// reintegration of dirty state.
func TestPooledTransportPartialLifecycle(t *testing.T) {
	m, agents := startHosts(t, 2)
	for _, a := range agents {
		a.SetTransport(TransportConfig{PoolSize: 2, PrefetchStreams: 2})
	}
	src, dst := agents[0].Name, agents[1].Name
	if err := m.CreateVMOn(src, CreateVMArgs{VMID: 32, Alloc: 8 * units.MiB}); err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(50); pfn < 60; pfn++ {
		if err := m.WritePage(src, 32, pfn, page(byte(pfn))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PartialMigrate(32, src, dst); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadPage(dst, 32, 55)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 55 {
		t.Fatalf("faulted page = %x through pooled memtap", got[0])
	}
	if err := m.WritePage(dst, 32, 70, page(0xAB)); err != nil {
		t.Fatal(err)
	}
	if err := m.Reintegrate(32, dst, src); err != nil {
		t.Fatal(err)
	}
	got, err = m.ReadPage(src, 32, 70)
	if err != nil || got[0] != 0xAB {
		t.Fatalf("dirty state lost through pooled transport: %v %x", err, got[0])
	}
}
