package stress

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/memtap"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
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

// TestElasticFabricChaosStorm is the elastic-fabric kill-and-rejoin
// gate: a partial VM faults pages from a 3-backend, 2-replica fabric
// while connections storm (dropped reads/writes, torn frames), and the
// membership churns underneath it — a fourth backend joins mid-storm
// (triggering a throttled rebalance), one original backend crashes,
// writes keep landing (buffered as hints for the dead replica), the
// crashed backend rejoins empty on the same address and is repaired,
// and finally a backend is drained out and powered off. The gate:
// zero failed reads throughout, byte-identical readback of every page
// afterwards (including the newest hinted writes, verified directly on
// the rejoined replica), and oasis_shard_underreplicated_ranges back
// to 0 once re-replication settles.
func TestElasticFabricChaosStorm(t *testing.T) {
	const (
		vmid    = pagestore.VMID(77)
		workers = 32
		touches = 24
	)
	alloc := 16 * units.MiB // 4096 pages = 32 placement ranges at RangePages=128

	src := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); int64(pfn) < src.NumPages(); pfn++ {
		page := make([]byte, units.PageSize)
		for i := 0; i < len(page); i += 32 {
			page[i] = byte(pfn%251 + 1)
		}
		if err := src.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := pagestore.EncodeAll(src)
	if err != nil {
		t.Fatal(err)
	}

	// Four backends: three founding members plus one that joins
	// mid-storm. All of them storm once the image is seeded.
	servers := make([]*memserver.Server, 4)
	addrs := make([]string, 4)
	injs := make([]*faultinject.Injector, 4)
	for i := range servers {
		injs[i] = faultinject.New(uint64(41+i), faultinject.Config{ReadErr: 0.01, WriteErr: 0.01, PartialWrite: 0.01})
		injs[i].SetEnabled(false)
		servers[i] = memserver.NewServer(secret, nil)
		servers[i].SetConnWrapper(injs[i].WrapConn)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr.String()
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})

	res := memserver.ResilientConfig{
		MaxRetries:       8,
		MutatingRetries:  8,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  50 * time.Millisecond,
		DialTimeout:      2 * time.Second,
		OpTimeout:        5 * time.Second,
		JitterSeed:       7,
	}

	// One tracked fabric client carries the whole life of the VM —
	// upload, faults, dirty writes — so rebalance and repair know which
	// images they are responsible for. Fine-grained ranges and a
	// throttled rebalance keep the migration window open under the
	// storm instead of finishing before the chaos starts.
	fab, err := shard.Dial(addrs[:3], secret, shard.Config{
		Replicas:             2,
		RangePages:           128,
		RebalanceBytesPerSec: 16 << 20,
		RebalanceBatchPages:  32,
		ProbeInterval:        20 * time.Millisecond,
		Pool:                 memserver.PoolConfig{Size: 2, Resilience: res},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.PutImage(vmid, alloc, snap); err != nil {
		t.Fatal(err)
	}

	mt := memtap.NewWithClient(vmid, fab)
	defer mt.Close() // closes the fabric
	desc := hypervisor.NewDescriptor(vmid, "elastic-storm", alloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range injs {
		inj.SetEnabled(true)
	}

	// Readers stay below writerBase; the writer owns the last 256 pages
	// (two placement ranges) so the two verify against disjoint
	// expectations.
	const writerPages = 256
	writerBase := src.NumPages() - writerPages
	ptPages := desc.PageTablePages
	readable := writerBase - ptPages

	var join, kill, rejoin sync.Once
	doJoin := func() {
		if err := fab.AddBackend(addrs[3]); err != nil {
			t.Errorf("add backend mid-storm: %v", err)
		}
	}
	doKill := func() { servers[1].Close() }
	doRejoin := func() {
		// The crashed backend comes back EMPTY on the same address (a
		// process restart loses the in-memory store); the fabric must
		// detect the amnesia and rebuild it from the survivors.
		srv := memserver.NewServer(secret, nil)
		srv.SetConnWrapper(injs[1].WrapConn)
		if _, err := srv.Listen(addrs[1]); err != nil {
			t.Errorf("rejoin backend: %v", err)
			return
		}
		servers[1] = srv
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < touches; i++ {
				if w == 0 {
					switch i {
					case touches / 4:
						join.Do(doJoin)
					case touches / 2:
						kill.Do(doKill)
					case 3 * touches / 4:
						rejoin.Do(doRejoin)
					}
				}
				pfn := pagestore.PFN(ptPages + int64(w*173+i*29)%readable)
				var err error
				for tries := 0; tries < 100; tries++ {
					if _, err = pvm.Touch(pfn); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					t.Errorf("worker %d: read failed through membership churn: %v", w, err)
					return
				}
			}
		}(w)
	}

	// A writer keeps dirtying the tail region through the crash window:
	// those diffs must land on the live replicas immediately and reach
	// the dead one via hinted handoff once it rejoins.
	const writerRounds = 6
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 1; r <= writerRounds; r++ {
			dirty := pagestore.NewImage(alloc)
			page := bytes.Repeat([]byte{byte(r)}, int(units.PageSize))
			for k := int64(0); k < writerPages; k++ {
				if err := dirty.Write(pagestore.PFN(writerBase+k), page); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
			diff, _, err := pagestore.EncodeAll(dirty)
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if err := fab.PutDiff(vmid, diff); err != nil {
				t.Errorf("writer round %d failed (should have been hinted): %v", r, err)
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()
	wg.Wait()
	join.Do(doJoin)
	kill.Do(doKill)
	rejoin.Do(doRejoin)
	for _, inj := range injs {
		inj.SetEnabled(false)
	}
	if t.Failed() {
		return
	}

	// The add-backend rebalance settles and the crashed-then-rejoined
	// backend is repaired: every range back at full replication.
	if err := fab.WaitRebalance(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 20*time.Second, "re-replication after rejoin", func() bool {
		return fab.UnderreplicatedRanges() == 0
	})
	if got := fab.RingVersion(); got != 2 {
		t.Fatalf("ring version = %d after one membership change, want 2", got)
	}

	// Drain a founding member out and power it off: ownership moves and
	// re-replicates onto the survivors before the backend dies.
	if err := fab.RemoveBackend(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := fab.WaitRebalance(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 20*time.Second, "re-replication after drain", func() bool {
		return fab.UnderreplicatedRanges() == 0
	})
	servers[0].Close()

	// Byte-identical readback of the whole guest through the surviving
	// fabric: the reader region against the source image, the writer
	// region against the last round's bytes.
	lastRound := bytes.Repeat([]byte{byte(writerRounds)}, int(units.PageSize))
	for pfn := pagestore.PFN(ptPages); int64(pfn) < src.NumPages(); pfn++ {
		want, _ := src.Read(pfn)
		if int64(pfn) >= writerBase {
			want = lastRound
		}
		got, err := fab.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("pfn %d unreadable after the storm: %v", pfn, err)
		}
		if len(got) == 0 {
			got = make([]byte, units.PageSize)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d corrupted through membership churn", pfn)
		}
	}

	// Every replica of the writer region holds the newest bytes —
	// including the backend that was dead when the writes were issued
	// (hint replay / repair) and the one that joined mid-storm
	// (rebalance copy). Direct-dial each owner, bypassing fabric
	// failover, so a stale copy cannot hide behind a fresh one.
	direct := make(map[string]*memserver.Client)
	ring := fab.Ring()
	checked := 0
	for k := int64(0); k < writerPages; k++ {
		pfn := pagestore.PFN(writerBase + k)
		for _, a := range ring.OwnerAddrs(vmid, pfn) {
			d, ok := direct[a]
			if !ok {
				d, err = memserver.Dial(network.TCP, a, secret, 2*time.Second)
				if err != nil {
					t.Fatalf("direct dial owner %s: %v", a, err)
				}
				defer d.Close()
				direct[a] = d
			}
			got, err := d.GetPage(vmid, pfn)
			if err != nil {
				t.Fatalf("owner %s cannot serve pfn %d: %v", a, pfn, err)
			}
			if !bytes.Equal(got, lastRound) {
				t.Fatalf("owner %s holds stale bytes at pfn %d: replication lost a write", a, pfn)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("writer-region replica check verified nothing")
	}
	// The VM never looked degraded (replicas kept serving) and is no
	// longer under-replicated.
	if mt.Degraded() {
		t.Fatal("memtap went degraded although replicas served throughout")
	}
	if mt.Underreplicated() {
		t.Fatal("memtap still reports under-replication after repair settled")
	}
	st := fab.FabricStatus()
	if st.RingVersion != 3 || st.Rebalancing || st.PendingRanges != 0 {
		t.Fatalf("fabric did not settle: %+v", st)
	}
	for _, b := range st.Backends {
		if b.HintQueue != 0 || b.NeedsRepair {
			t.Fatalf("backend %s still owes recovery after the storm: %+v", b.Addr, b)
		}
	}
	t.Logf("elastic storm: %d reads, %d writer-page replicas verified byte-identical", workers*touches, checked)
}
