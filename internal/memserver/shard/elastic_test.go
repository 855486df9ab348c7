package shard

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// addServer starts one more memory server for an elasticity test.
func (f *fabric) addServer(t *testing.T) string {
	t.Helper()
	srv := memserver.NewServer(testSecret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.servers = append(f.servers, srv)
	f.addrs = append(f.addrs, addr.String())
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// ownsRange reports whether addr owns the range containing pfn in r.
func ownsRange(r *Ring, addr string, id pagestore.VMID, pfn pagestore.PFN) bool {
	for _, a := range r.OwnerAddrs(id, pfn) {
		if a == addr {
			return true
		}
	}
	return false
}

// elasticConfig keeps membership machinery fast for tests.
func elasticConfig() Config {
	return Config{
		Replicas:      2,
		RangePages:    8,
		ProbeInterval: 20 * time.Millisecond,
	}
}

// TestElasticAddBackend grows a live 3-backend fabric to 4 and proves
// the moved ranges land on the newcomer byte-identically while reads
// keep working throughout.
func TestElasticAddBackend(t *testing.T) {
	const vmid = pagestore.VMID(81)
	im := testImage(t, 11, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}

	newAddr := f.addServer(t)
	if v := f.client.RingVersion(); v != 1 {
		t.Fatalf("fresh fabric ring version = %d, want 1", v)
	}
	if err := f.client.AddBackend(newAddr); err != nil {
		t.Fatal(err)
	}
	if v := f.client.RingVersion(); v != 2 {
		t.Fatalf("ring version after add = %d, want 2", v)
	}
	// Mid-rebalance reads must already be safe (old owners serve pending
	// ranges).
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("mid-rebalance read-back diverges from the source image")
	}
	if err := f.client.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("post-rebalance read-back diverges from the source image")
	}
	if n := f.client.UnderreplicatedRanges(); n != 0 {
		t.Fatalf("UnderreplicatedRanges = %d after settled add, want 0", n)
	}
	st := f.client.FabricStatus()
	if st.Rebalancing || st.PendingRanges != 0 {
		t.Fatalf("fabric still rebalancing after WaitRebalance: %+v", st)
	}
	if len(f.client.Backends()) != 4 {
		t.Fatalf("Backends() = %v, want 4 members", f.client.Backends())
	}
	// The newcomer actually owns data now: it must hold pages, and they
	// must be the right bytes (read it directly, no fabric failover).
	ring := f.client.Ring()
	direct, err := memserver.DialPool(newAddr, testSecret, memserver.PoolConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	owned := 0
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if !ownsRange(ring, newAddr, vmid, pfn) {
			continue
		}
		owned++
		got, err := direct.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("new backend cannot serve owned pfn %d: %v", pfn, err)
		}
		wantPage, err := im.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantPage) {
			t.Fatalf("new backend serves wrong bytes for pfn %d", pfn)
		}
	}
	if owned == 0 {
		t.Fatal("new backend owns no pages; the ring did not rebalance")
	}
}

// TestElasticRemoveBackend drains a backend out of a 4-member fabric:
// after the rebalance settles its data lives elsewhere, so the fabric
// survives the backend actually going away.
func TestElasticRemoveBackend(t *testing.T) {
	const vmid = pagestore.VMID(82)
	im := testImage(t, 12, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 4, elasticConfig())
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}

	victim := f.addrs[1]
	if err := f.client.RemoveBackend(victim); err != nil {
		t.Fatal(err)
	}
	// The drained backend still serves its moved ranges mid-rebalance.
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("mid-drain read-back diverges from the source image")
	}
	if err := f.client.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.client.Backends(); len(got) != 3 {
		t.Fatalf("Backends() after remove = %v, want 3 members", got)
	}
	// Now the backend actually dies. Every range must have R copies
	// among the survivors.
	f.servers[1].Close()
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("read-back after the drained backend died diverges")
	}
	if n := f.client.UnderreplicatedRanges(); n != 0 {
		t.Fatalf("UnderreplicatedRanges = %d after drain, want 0", n)
	}
}

// TestElasticRemoveDeadBackend is the re-replication path: a backend
// crashes (never to return) and removing it restores every range to R
// live copies from the survivors.
func TestElasticRemoveDeadBackend(t *testing.T) {
	const vmid = pagestore.VMID(83)
	im := testImage(t, 13, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}

	f.servers[2].Close() // crash, no drain
	if err := f.client.RemoveBackend(f.addrs[2]); err != nil {
		t.Fatal(err)
	}
	if err := f.client.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("read-back after re-replication diverges from the source image")
	}
	waitFor(t, 5*time.Second, "under-replication to clear", func() bool {
		return f.client.UnderreplicatedRanges() == 0
	})
	// Both survivors hold every range between them at R=2: killing
	// either one must still leave the whole image readable.
	f.servers[0].Close()
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("image not fully re-replicated onto the survivors")
	}
}

// TestElasticCrashThenRejoin kills a backend, keeps writing (hinted
// handoff), restarts it empty on the same address, and proves the
// fabric repairs and converges: under-replication returns to zero and
// the rejoined backend serves the newest bytes directly.
func TestElasticCrashThenRejoin(t *testing.T) {
	const vmid = pagestore.VMID(84)
	im := testImage(t, 14, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}

	// Crash.
	crashed := f.addrs[1]
	f.servers[1].Close()

	// Writes keep succeeding: the dead replica's parts are hinted.
	dirty := bytes.Repeat([]byte{0xE7}, int(units.PageSize))
	for round := 0; round < 3; round++ {
		epoch := im.NextEpoch()
		for pfn := pagestore.PFN(round); int64(pfn) < im.NumPages(); pfn += 11 {
			if err := im.Write(pfn, dirty); err != nil {
				t.Fatal(err)
			}
		}
		diff, _, err := pagestore.EncodeDirtySince(im, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.client.PutDiff(vmid, diff); err != nil {
			t.Fatalf("diff round %d with a dead replica: %v", round, err)
		}
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("read-back with a crashed replica diverges")
	}
	if n := f.client.UnderreplicatedRanges(); n == 0 {
		t.Fatal("UnderreplicatedRanges = 0 with a crashed replica holding hinted writes")
	}

	// Rejoin: a brand-new empty server on the same address.
	restarted := memserver.NewServer(testSecret, nil)
	if _, err := restarted.Listen(crashed); err != nil {
		t.Fatalf("rejoin listen on %s: %v", crashed, err)
	}
	t.Cleanup(func() { restarted.Close() })

	waitFor(t, 10*time.Second, "repair + hint replay to converge", func() bool {
		return f.client.UnderreplicatedRanges() == 0
	})
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("read-back after rejoin diverges")
	}
	// The rejoined backend must itself hold the newest bytes for every
	// range it owns.
	ring := f.client.Ring()
	direct, err := memserver.DialPool(crashed, testSecret, memserver.PoolConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	checked := 0
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if !ownsRange(ring, crashed, vmid, pfn) {
			continue
		}
		checked++
		got, err := direct.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("rejoined backend cannot serve owned pfn %d: %v", pfn, err)
		}
		wantPage, err := im.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantPage) {
			t.Fatalf("rejoined backend serves stale bytes for pfn %d", pfn)
		}
	}
	if checked == 0 {
		t.Fatal("rejoined backend owns nothing; test proves nothing")
	}
	status := f.client.FabricStatus()
	for _, b := range status.Backends {
		if b.Addr == crashed && (b.HintQueue != 0 || b.NeedsRepair) {
			t.Fatalf("rejoined backend still owes recovery: %+v", b)
		}
	}
}

// TestElasticMembershipChangeRefusedWhileRebalancing pins the admin
// invariant: one transition at a time.
func TestElasticMembershipChangeRefusedWhileRebalancing(t *testing.T) {
	const vmid = pagestore.VMID(85)
	im := testImage(t, 15, 128)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig()
	// Slow the rebalancer down so the overlap window is reliable.
	cfg.RebalanceBytesPerSec = 64 << 10
	cfg.RebalanceBatchPages = 8
	f := newFabric(t, 3, cfg)
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	newAddr := f.addServer(t)
	if err := f.client.AddBackend(newAddr); err != nil {
		t.Fatal(err)
	}
	if err := f.client.RemoveBackend(f.addrs[0]); err == nil {
		t.Fatal("second membership change accepted while the first is rebalancing")
	}
	if err := f.client.WaitRebalance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After settling, the next change is accepted.
	if err := f.client.RemoveBackend(f.addrs[0]); err != nil {
		t.Fatalf("membership change after settle: %v", err)
	}
	if err := f.client.WaitRebalance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
		t.Fatal("read-back after add+remove diverges")
	}
}

// TestShardReadErrorsJoined (satellite fix): a read that fails on every
// replica reports each backend's own failure, not just the last one.
func TestShardReadErrorsJoined(t *testing.T) {
	const vmid = pagestore.VMID(86)
	im := testImage(t, 16, 32)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 2, Config{Replicas: 2, RangePages: 8})
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	_, err = f.client.GetPage(vmid, 0)
	if err == nil {
		t.Fatal("read succeeded against a dead fabric")
	}
	for _, addr := range f.addrs {
		if !strings.Contains(err.Error(), addr) {
			t.Fatalf("joined read error omits backend %s: %v", addr, err)
		}
	}
}

// TestElasticDeleteDuringOutage: a Delete with one replica down is
// hinted and applied on rejoin, so the image does not resurrect.
func TestElasticDeleteDuringOutage(t *testing.T) {
	const vmid = pagestore.VMID(87)
	im := testImage(t, 17, 64)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	crashed := f.addrs[0]
	f.servers[0].Close()
	if err := f.client.Delete(vmid); err != nil {
		t.Fatalf("delete with a dead replica: %v", err)
	}
	restarted := memserver.NewServer(testSecret, nil)
	if _, err := restarted.Listen(crashed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	waitFor(t, 10*time.Second, "hinted delete to replay", func() bool {
		st := f.client.FabricStatus()
		for _, b := range st.Backends {
			if b.Addr == crashed {
				return b.HintQueue == 0 && !b.NeedsRepair
			}
		}
		return false
	})
	if _, err := restarted.Store().Get(vmid); err == nil {
		t.Fatal("rejoined backend resurrected a deleted VM")
	}
}
