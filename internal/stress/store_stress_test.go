package stress

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// TestFirstDialRidesOutReset: the server resets the very first
// connection it accepts before sending its challenge — what a chaos
// schedule or a daemon mid-restart does to whichever client dials at
// that moment. A memtap's eager first dial used to surface that as
// "pool dial ...: EOF" and no memtap; it now rides the lane's retry like
// any later call, and the partial VM faults its pages in.
func TestFirstDialRidesOutReset(t *testing.T) {
	const vmid = pagestore.VMID(64)
	im := pagestore.NewImage(1 * units.MiB)
	desc := hypervisor.NewDescriptor(vmid, "first-dial", 1*units.MiB, 1)
	pfn := pagestore.PFN(desc.PageTablePages + 3)
	if err := im.Write(pfn, bytes.Repeat([]byte{0x5A}, int(units.PageSize))); err != nil {
		t.Fatal(err)
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	srv := memserver.NewServer(secret, nil)
	var accepted atomic.Int32
	srv.SetConnWrapper(func(c net.Conn) net.Conn {
		if accepted.Add(1) == 1 {
			c.Close()
		}
		return c
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.InstallImage(vmid, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	res := stormResilience(nil)
	mt, err := memtap.NewWithOptions(vmid, addr.String(), secret, memtap.Options{Resilience: &res, PoolSize: 2})
	if err != nil {
		t.Fatalf("memtap's first dial was not retried: %v", err)
	}
	defer mt.Close()
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pvm.Touch(pfn); err != nil {
		t.Fatal(err)
	}
	if got, _ := pvm.Read(pfn); got[0] != 0x5A || got[len(got)-1] != 0x5A {
		t.Fatal("page faulted in wrong after the retried dial")
	}
	if accepted.Load() < 2 {
		t.Fatalf("%d connections accepted: the reset was never exercised", accepted.Load())
	}
}

// TestServeDuringDiffsUnderChaos: pooled readers batch-fetch a window
// while a writer rewrites the whole window, one differential upload per
// round, over connections the server resets and tears. The server keeps
// each diff's entries where they arrived and compacts as they pile up;
// a batch is copied out under the image lock a diff is adopted under.
// So every batch a reader gets must be one round's pages whole — no torn
// entry, no two rounds mixed — and rounds never run backwards, whatever
// was retried.
func TestServeDuringDiffsUnderChaos(t *testing.T) {
	const (
		vmid   = pagestore.VMID(65)
		pages  = 48
		rounds = 60
	)
	serverInj := faultinject.New(17, faultinject.Config{ReadErr: 0.02, WriteErr: 0.02, PartialWrite: 0.01})
	serverInj.SetEnabled(false)
	addr, _ := chaosBackend(t, vmid, 1*units.MiB, serverInj)
	roundDiff := func(round byte) []byte {
		out := binary.BigEndian.AppendUint32([]byte("OAPS"), pages)
		for pfn := 0; pfn < pages; pfn++ {
			page := bytes.Repeat([]byte{round}, int(units.PageSize))
			page[0] = byte(pfn)
			for i := 1; i < 32+pfn; i++ {
				page[i*11] = round ^ byte(i)
			}
			out = pagestore.EncodePageAppend(binary.BigEndian.AppendUint64(out, uint64(pfn)), page)
		}
		return out
	}
	dialPool := func(lanes int) *memserver.ClientPool {
		p, err := memserver.DialPool(addr, secret, memserver.PoolConfig{Size: lanes, Resilience: stormResilience(nil)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	// retry re-issues an op that ran out of its retry budget under the
	// storm, as the agent does.
	retry := func(op func() error) error {
		var err error
		for tries := 0; tries < 30; tries++ {
			if err = op(); err == nil {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return err
	}
	w, rd := dialPool(1), dialPool(4)
	if err := w.PutDiff(vmid, roundDiff(1)); err != nil {
		t.Fatal(err)
	}
	serverInj.SetEnabled(true)

	pfns := make([]pagestore.PFN, pages)
	for i := range pfns {
		pfns[i] = pagestore.PFN(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := byte(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var got map[pagestore.PFN][]byte
				if err := retry(func() (err error) { got, err = rd.GetPages(vmid, pfns); return }); err != nil {
					t.Errorf("GetPages wedged: %v", err)
					return
				}
				round := got[0][1]
				for pfn, page := range got {
					if page[1] != round || page[len(page)-1] != round || page[0] != byte(pfn) {
						t.Errorf("batch mixes rounds %d and %d (pfn %d)", round, page[1], pfn)
						return
					}
				}
				if round < last {
					t.Errorf("round %d served after round %d", round, last)
					return
				}
				last = round
			}
		}()
	}
	for round := 2; round <= rounds && !t.Failed(); round++ {
		diff := roundDiff(byte(round))
		put := func() error { return w.PutDiff(vmid, diff) }
		if round%2 == 0 {
			put = func() error {
				return w.StreamDiff(vmid, diff, memserver.PutOptions{Streams: 2, ChunkBytes: 8 << 10})
			}
		}
		if err := retry(put); err != nil {
			t.Fatalf("round %d: diff wedged: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
