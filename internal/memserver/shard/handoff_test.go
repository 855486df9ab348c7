package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/memserver"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// TestReplayEscalatesToRepairUnderVMLock pins the replay escalation
// path's locking convention: recover's replay loop holds the VM lock
// while replayOne runs, and a diff replay that hits unknown-vm
// escalates to repair from inside that critical section. The repair
// must therefore run lock-free (repairVMLocked) — re-acquiring the
// non-reentrant VM lock would wedge the recovery goroutine forever and
// block every later write of the VM.
func TestReplayEscalatesToRepairUnderVMLock(t *testing.T) {
	const vmid = pagestore.VMID(91)
	im := testImage(t, 21, 64)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}

	// Backend 0 silently loses the VM (a restart-empty crash looks the
	// same from the client): the diff replay below answers unknown-vm.
	f.servers[0].Store().Delete(vmid)

	// A queued diff for the lost VM, replayed exactly as recover does
	// it: with the VM lock held across replayOne.
	diff, err := pagestore.EncodePages(im, []pagestore.PFN{0})
	if err != nil {
		t.Fatal(err)
	}
	ref := f.client.state.Load().refByAddr(f.addrs[0])
	if ref == nil {
		t.Fatalf("backend %s not in the epoch", f.addrs[0])
	}
	h := hint{kind: wDiff, vm: vmid, part: diff}

	done := make(chan error, 1)
	go func() {
		lk := f.client.vmLock(vmid)
		lk.Lock()
		defer lk.Unlock()
		done <- f.client.replayOne(ref, h)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("replay escalation to repair: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replayOne deadlocked escalating to repair while holding the VM lock")
	}

	// The escalated repair actually rebuilt backend 0's partition.
	ring := f.client.Ring()
	direct, err := memserver.DialPool(f.addrs[0], testSecret, memserver.PoolConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	checked := 0
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if !ownsRange(ring, f.addrs[0], vmid, pfn) {
			continue
		}
		checked++
		got, err := direct.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("repaired backend cannot serve owned pfn %d: %v", pfn, err)
		}
		want, err := im.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("repaired backend serves wrong bytes for pfn %d", pfn)
		}
	}
	if checked == 0 {
		t.Fatal("backend 0 owns nothing; test proves nothing")
	}
}

// TestHintPopByIdentity pins the replay pop against the queue-rewrite
// race: a Delete enqueued while the head hint replays filters the whole
// queue (dropping the head), so a positional pop would discard a
// different, unreplayed hint — stale ranges would later serve reads as
// clean. The pop must match the replayed hint by identity and become a
// no-op when the head is gone.
func TestHintPopByIdentity(t *testing.T) {
	cfg := Config{Replicas: 1, ProbeInterval: time.Hour}
	c, err := New([]string{"127.0.0.1:1"}, testSecret, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := "127.0.0.1:1"
	const vmA, vmB = pagestore.VMID(1), pagestore.VMID(2)
	partA := []byte{1, 2, 3}
	partB := []byte{4, 5, 6, 7}
	c.addHint(addr, hint{kind: wDiff, vm: vmA, part: partA}, []int64{0}, false)
	c.addHint(addr, hint{kind: wDiff, vm: vmB, part: partB}, []int64{1}, false)

	// The replay loop reads the head (vmA's diff) and replays it
	// outside hintMu...
	c.hintMu.Lock()
	head := c.hints[addr].queue[0]
	c.hintMu.Unlock()

	// ...a concurrent Delete of vmA rewrites the queue meanwhile,
	// dropping the head being replayed...
	c.hintMu.Lock()
	c.appendHintLocked(addr, c.hints[addr], hint{kind: wDelete, vm: vmA})
	c.hintMu.Unlock()

	// ...so the pop after the replay must leave vmB's hint alone.
	c.popReplayed(addr, head)

	c.hintMu.Lock()
	defer c.hintMu.Unlock()
	hl := c.hints[addr]
	if len(hl.queue) != 2 || hl.queue[0].vm != vmB || hl.queue[0].kind != wDiff || hl.queue[1].kind != wDelete {
		t.Fatalf("queue after identity pop = %+v, want [vmB diff, vmA delete]", hl.queue)
	}
	if hl.bytes != int64(len(partB)) {
		t.Fatalf("hint bytes after identity pop = %d, want %d", hl.bytes, len(partB))
	}
}

// TestElasticAddBackendConcurrentUpload races a fresh image upload
// against an AddBackend: whichever epoch the upload's fan-out lands on,
// the VM must end up registered on the joiner, fully readable, and
// byte-identical on the newcomer's owned ranges (the prepare-window
// catch-up plus writeSnapshot's publish-then-validate retry close the
// window from both sides).
func TestElasticAddBackendConcurrentUpload(t *testing.T) {
	const seeded, racing = pagestore.VMID(92), pagestore.VMID(93)
	seedIm := testImage(t, 22, 64)
	seedSnap, _, err := pagestore.EncodeAll(seedIm)
	if err != nil {
		t.Fatal(err)
	}
	im := testImage(t, 23, 128)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	// A seeded VM gives the membership change registration work in its
	// prepare window, widening the race with the concurrent upload.
	if err := f.client.PutImage(seeded, seedIm.Alloc(), seedSnap); err != nil {
		t.Fatal(err)
	}

	newAddr := f.addServer(t)
	errCh := make(chan error, 1)
	go func() { errCh <- f.client.PutImage(racing, im.Alloc(), snap) }()
	if err := f.client.AddBackend(newAddr); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("upload racing the membership change: %v", err)
	}
	if err := f.client.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "under-replication to clear", func() bool {
		return f.client.UnderreplicatedRanges() == 0
	})

	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, f.client, racing, im); !bytes.Equal(got, want) {
		t.Fatal("read-back of the racing upload diverges after the add settles")
	}
	// The newcomer itself holds the racing VM's owned ranges.
	ring := f.client.Ring()
	direct, err := memserver.DialPool(newAddr, testSecret, memserver.PoolConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if !ownsRange(ring, newAddr, racing, pfn) {
			continue
		}
		got, err := direct.GetPage(racing, pfn)
		if err != nil {
			t.Fatalf("newcomer cannot serve owned pfn %d of the racing VM: %v", pfn, err)
		}
		wantPage, err := im.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantPage) {
			t.Fatalf("newcomer serves wrong bytes for racing VM pfn %d", pfn)
		}
	}
}

// TestRepairNeverCopiesFromStalePreviousOwner holds a transition open on
// one pending range while a second moved range has settled and been
// written since. That range's previous owner stopped receiving writes
// when it settled, so it holds stale bytes; with the range's other
// current owner tainted there is no clean source left, and repairing
// the remaining current owner must fail rather than rebuild from the
// stale copy.
func TestRepairNeverCopiesFromStalePreviousOwner(t *testing.T) {
	const vmid = pagestore.VMID(94)
	im := testImage(t, 24, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	cfg := elasticConfig()
	cfg.ProbeInterval = time.Hour // nothing recovers behind the test's back
	f := newFabric(t, 3, cfg)
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	old := f.client.state.Load()
	if err := f.client.AddBackend(f.addServer(t)); err != nil {
		t.Fatal(err)
	}
	if err := f.client.WaitRebalance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cur := f.client.state.Load()
	moved := movedRanges(old.ring, cur.ring, map[pagestore.VMID]units.Bytes{vmid: im.Alloc()})
	if len(moved) < 2 {
		t.Fatalf("only %d ranges moved; need one held pending and one settled", len(moved))
	}
	held, settled := moved[0], moved[1]
	f.client.pendMu.Lock()
	f.client.pending[held] = true
	f.client.pendMu.Unlock()
	f.client.state.Store(&epochState{version: cur.version, ring: cur.ring, cur: cur.cur, prevRing: old.ring, prev: old.cur})

	// A write to the settled range lands on its current owners only.
	pfn := pagestore.PFN(settled.rng * cur.ring.RangePages())
	fresh := bytes.Repeat([]byte{0xA5}, int(units.PageSize))
	epoch := im.NextEpoch()
	if err := im.Write(pfn, fresh); err != nil {
		t.Fatal(err)
	}
	diff, _, err := pagestore.EncodeDirtySince(im, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.PutDiff(vmid, diff); err != nil {
		t.Fatal(err)
	}
	owners := cur.ring.OwnerAddrs(vmid, pfn)
	stale := ""
	for _, a := range old.ring.OwnerAddrs(vmid, pfn) {
		if !ownsRange(cur.ring, a, vmid, pfn) {
			stale = a
		}
	}
	direct, err := memserver.DialPool(stale, testSecret, memserver.PoolConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if got, err := direct.GetPage(vmid, pfn); err != nil || bytes.Equal(got, fresh) {
		t.Fatalf("previous owner %s should hold the pre-write page (err %v)", stale, err)
	}

	// Taint the settled range's other current owner, then repair the first.
	f.client.hintMu.Lock()
	f.client.hints[owners[1]] = &hintLog{dirty: map[rangeKey]bool{settled: true}}
	f.client.taintRecount()
	f.client.hintMu.Unlock()
	lk := f.client.vmLock(vmid)
	lk.Lock()
	err = f.client.repairVM(cur.refByAddr(owners[0]), vmid)
	lk.Unlock()
	if err == nil || !strings.Contains(err.Error(), "no clean surviving replica") {
		t.Fatalf("repair with no clean current owner = %v, want a no-clean-replica failure (never a copy from %s)", err, stale)
	}
}

// TestRepairKeepsBackendOutOfReads races page reads against a repair
// found by the presence probe after a breaker close (a backend restarted
// empty while no write was in flight, so nothing else marked it). The
// repair registers an empty image and copies the ranges back one by
// one, slowed here so the window is wide; until the last range verifies
// the backend would answer zeros, so it must not serve a single read.
func TestRepairKeepsBackendOutOfReads(t *testing.T) {
	const vmid = pagestore.VMID(95)
	im := testImage(t, 25, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	slow := faultinject.New(5, faultinject.Config{Latency: 2 * time.Millisecond, LatencyProb: 1})
	slow.SetEnabled(false)
	cfg := elasticConfig()
	cfg.Pool.Resilience.Network = slow.Network(network.TCP)
	f := newFabric(t, 3, cfg)
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	victim := f.addrs[0]
	ref := f.client.state.Load().refByAddr(victim)
	f.servers[0].Close()
	// Reads fail over until the victim's breaker opens; after that only
	// the prober's half-open probe reaches it.
	waitFor(t, 10*time.Second, "the victim's breaker to open", func() bool {
		readBack(t, f.client, vmid, im)
		return ref.pool.BreakerState() == memserver.BreakerOpen
	})

	repairs := f.client.tel.repairs.Value()
	slow.SetEnabled(true)
	restarted := memserver.NewServer(testSecret, nil)
	if _, err := restarted.Listen(victim); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })

	// Read from the moment the repair has registered the empty image.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := restarted.Store().Get(vmid); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		for reads := 0; ; reads++ {
			select {
			case <-stop:
				if reads == 0 {
					done <- fmt.Errorf("no read raced the repair")
				}
				close(done)
				return
			default:
			}
			for base := int64(0); base < im.NumPages(); base += 32 {
				batch := make([]pagestore.PFN, 0, 32)
				for pfn := base; pfn < base+32; pfn++ {
					batch = append(batch, pagestore.PFN(pfn))
				}
				pages, err := f.client.GetPages(vmid, batch)
				if err != nil {
					done <- err
					return
				}
				for _, pfn := range batch {
					if want, _ := im.Read(pfn); !pagesEqual(pages[pfn], want) {
						done <- fmt.Errorf("pfn %d read wrong bytes (zero: %v) while the victim was being repaired",
							pfn, pagestore.IsZeroPage(pages[pfn]))
						return
					}
				}
			}
		}
	}()
	waitFor(t, 30*time.Second, "the repair to finish and under-replication to clear", func() bool {
		return f.client.tel.repairs.Value() > repairs && f.client.UnderreplicatedRanges() == 0
	})
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHintOverflowForcesRepair pins the hint bound: past it the queue is
// dropped (counted as dropped hints) and the backend owes a repair. The
// backend then rejoins with the data it had before the outage — stale,
// not missing, so the presence probe alone would pass it — and the owed
// repair must bring every range it holds back to the newest bytes.
func TestHintOverflowForcesRepair(t *testing.T) {
	const vmid = pagestore.VMID(96)
	im := testImage(t, 26, 256)
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(t, 3, elasticConfig())
	f.client.hintMu.Lock()
	f.client.hintLimit = 1 // every hinted part overflows
	f.client.hintMu.Unlock()
	if err := f.client.PutImage(vmid, im.Alloc(), snap); err != nil {
		t.Fatal(err)
	}
	victim := f.addrs[1]
	kept := f.servers[1].Store()
	f.servers[1].Close()

	dropped := f.client.tel.hintsDropped.Value()
	dirty := bytes.Repeat([]byte{0x5E}, int(units.PageSize))
	for round := 0; round < 3; round++ {
		epoch := im.NextEpoch()
		for pfn := pagestore.PFN(round); int64(pfn) < im.NumPages(); pfn += 7 {
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
	if f.client.tel.hintsDropped.Value() == dropped {
		t.Fatal("hint overflow dropped nothing")
	}
	for _, b := range f.client.FabricStatus().Backends {
		if b.Addr == victim && (b.HintQueue != 0 || !b.NeedsRepair) {
			t.Fatalf("after overflow: %+v, want an empty queue and a repair owed", b)
		}
	}

	restarted := memserver.NewServerWithStore(testSecret, kept, nil)
	if _, err := restarted.Listen(victim); err != nil {
		t.Fatalf("rejoin listen on %s: %v", victim, err)
	}
	t.Cleanup(func() { restarted.Close() })
	waitFor(t, 10*time.Second, "the owed repair to converge", func() bool {
		for _, b := range f.client.FabricStatus().Backends {
			if b.Addr == victim && b.NeedsRepair {
				return false
			}
		}
		return f.client.UnderreplicatedRanges() == 0
	})
	ring := f.client.Ring()
	direct, err := memserver.DialPool(victim, testSecret, memserver.PoolConfig{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	checked := 0
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if !ownsRange(ring, victim, vmid, pfn) {
			continue
		}
		checked++
		got, err := direct.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("repaired backend cannot serve owned pfn %d: %v", pfn, err)
		}
		if want, _ := im.Read(pfn); !bytes.Equal(got, want) {
			t.Fatalf("repaired backend serves stale bytes for pfn %d", pfn)
		}
	}
	if checked == 0 {
		t.Fatal("victim owns nothing; test proves nothing")
	}
}
