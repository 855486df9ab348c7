package stress

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/memtap"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

var secret = []byte("stress-secret")

// chaosBackend stands up a memory server whose accepted connections drop
// reads/writes and tear frames mid-batch, holding a seeded image for one
// VM. Returns the dial address and the source image.
func chaosBackend(t *testing.T, vmid pagestore.VMID, alloc units.Bytes, inj *faultinject.Injector) (string, *pagestore.Image) {
	t.Helper()
	im := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		page := make([]byte, units.PageSize)
		for i := 0; i < len(page); i += 32 {
			page[i] = byte(pfn%251 + 1)
		}
		if err := im.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	srv := memserver.NewServer(secret, nil)
	if inj != nil {
		srv.SetConnWrapper(inj.WrapConn)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.InstallImage(vmid, alloc, snap); err != nil {
		t.Fatal(err)
	}
	return addr.String(), im
}

// stormResilience is a retry budget big enough to ride out the injected
// storms without the breaker masking retry bugs, with fast backoff so
// the test stays quick.
func stormResilience(dialInj *faultinject.Injector) memserver.ResilientConfig {
	cfg := memserver.ResilientConfig{
		MaxRetries:       12,
		MutatingRetries:  6,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		BreakerThreshold: 1 << 30,
		BreakerCooldown:  20 * time.Millisecond,
		DialTimeout:      2 * time.Second,
		OpTimeout:        5 * time.Second,
		JitterSeed:       7,
	}
	if dialInj != nil {
		cfg.Network = dialInj.Network(netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
			// A slow dial: reconnect storms must not convoy the pool.
			time.Sleep(2 * time.Millisecond)
			return network.TCP.Dial(addr, deadline)
		}))
	}
	return cfg
}

// netFunc is a network whose dials run the function and whose listens
// are TCP's: tests slow, cut or count a client's dials with it.
type netFunc func(addr string, deadline time.Time) (net.Conn, error)

func (f netFunc) Dial(addr string, deadline time.Time) (net.Conn, error) { return f(addr, deadline) }
func (netFunc) Listen(addr string) (net.Listener, error)                 { return network.TCP.Listen(addr) }

// TestClientPoolChaosStorm hammers one ClientPool from 64 goroutines
// while the server resets connections mid-batch and dials fail or crawl:
// every successful read must return correct bytes, nothing may wedge,
// and the pool must come back clean once the storm passes.
func TestClientPoolChaosStorm(t *testing.T) {
	const vmid = pagestore.VMID(61)
	serverInj := faultinject.New(3, faultinject.Config{ReadErr: 0.04, WriteErr: 0.03, PartialWrite: 0.03})
	addr, src := chaosBackend(t, vmid, 8*units.MiB, serverInj)
	dialInj := faultinject.New(5, faultinject.Config{DialFail: 0.2, ReadErr: 0.04, WriteErr: 0.03})

	// Set up on a calm sea (the eager first-lane dial must see a clean
	// handshake), then arm the storm.
	serverInj.SetEnabled(false)
	dialInj.SetEnabled(false)
	p, err := memserver.DialPool(addr, secret, memserver.PoolConfig{
		Size:       4,
		Resilience: stormResilience(dialInj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	serverInj.SetEnabled(true)
	dialInj.SetEnabled(true)

	const workers = 64
	pages := src.NumPages()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				pfn := pagestore.PFN(int64(w*12+i) % pages)
				want, _ := src.Read(pfn)
				var got []byte
				var err error
				// An op may exhaust its retry budget under the storm;
				// bounded re-issue is the agent's behaviour. What must
				// never happen is a wrong page or a wedged pool.
				for tries := 0; tries < 30; tries++ {
					if i%3 == 0 {
						var ps map[pagestore.PFN][]byte
						ps, err = p.GetPages(vmid, []pagestore.PFN{pfn, pfn + 1, pfn + 2})
						if err == nil {
							got = ps[pfn]
						}
					} else {
						got, err = p.GetPage(vmid, pfn)
					}
					if err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					t.Errorf("worker %d: wedged under storm: %v", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d: pfn %d wrong bytes through chaos", w, pfn)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Storm over: a clean pool must serve immediately.
	serverInj.SetEnabled(false)
	dialInj.SetEnabled(false)
	want, _ := src.Read(7)
	var got []byte
	for tries := 0; tries < 10; tries++ {
		if got, err = p.GetPage(vmid, 7); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("pool did not recover after the storm: %v", err)
	}
}

// TestSingleFlightUnderChaos drives 64 goroutines through pvm.Touch with
// heavy same-PFN collisions while the transport storms underneath:
// single-flight plus the hypervisor's install race must keep the
// counters exact — memtap and hypervisor agree, bytes equal faults, no
// waiter is lost, and no page is fetched into the VM twice.
func TestSingleFlightUnderChaos(t *testing.T) {
	const vmid = pagestore.VMID(62)
	serverInj := faultinject.New(9, faultinject.Config{ReadErr: 0.03, WriteErr: 0.02, PartialWrite: 0.02})
	addr, src := chaosBackend(t, vmid, 4*units.MiB, serverInj)

	dialInj := faultinject.New(13, faultinject.Config{DialFail: 0.1})
	res := stormResilience(dialInj)
	serverInj.SetEnabled(false)
	dialInj.SetEnabled(false)
	mt, err := memtap.NewWithOptions(vmid, addr, secret, memtap.Options{
		Resilience: &res,
		PoolSize:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	serverInj.SetEnabled(true)
	dialInj.SetEnabled(true)
	desc := hypervisor.NewDescriptor(vmid, "storm", 4*units.MiB, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}

	// 64 workers share a 96-page window: ~2/3 of all touches collide
	// with another worker's in-flight fault.
	const workers, window = 64, 96
	base := pagestore.PFN(desc.PageTablePages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				pfn := base + pagestore.PFN((w*24+i*7)%window)
				var err error
				for tries := 0; tries < 30; tries++ {
					if _, err = pvm.Touch(pfn); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					t.Errorf("worker %d: touch wedged: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every page in the window is present with correct contents.
	for off := int64(0); off < window; off++ {
		pfn := base + pagestore.PFN(off)
		want, _ := src.Read(pfn)
		got, err := pvm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d corrupted under storm", pfn)
		}
	}
	// Exact accounting, cross-checked between the two layers. Without
	// prefetch in play every successful leader fetch is installed by
	// exactly one touch winner, so the counters must agree exactly.
	if mt.Faults() != pvm.Faults() {
		t.Errorf("memtap served %d faults, hypervisor counted %d", mt.Faults(), pvm.Faults())
	}
	if mt.FetchedBytes() != pvm.FetchedBytes() {
		t.Errorf("memtap fetched %v, hypervisor installed %v", mt.FetchedBytes(), pvm.FetchedBytes())
	}
	if want := units.Bytes(mt.Faults()) * units.PageSize; mt.FetchedBytes() != want {
		t.Errorf("FetchedBytes %v != faults x page size %v (duplicate fetch?)", mt.FetchedBytes(), want)
	}
	if pvm.PresentPages() != window+desc.PageTablePages {
		t.Errorf("present pages %d, want exactly the touched window (duplicate or lost install)",
			pvm.PresentPages())
	}
	if mt.DedupedFaults() == 0 {
		t.Error("no fault collisions coalesced; the stress pattern lost its teeth")
	}
}

// TestPrefetchRacesFaultsUnderChaos overlaps a pipelined partial→full
// conversion with 16 concurrent faulters while the transport storms:
// the VM must end up complete with every page installed exactly once
// and the byte accounting internally consistent.
func TestPrefetchRacesFaultsUnderChaos(t *testing.T) {
	prefetchRacesFaultsUnderChaos(t, 63, memtap.Options{PoolSize: 4, PrefetchStreams: 4})
}

// TestOneLanePrefetchRacesFaultsUnderChaos is the same storm over the
// default transport: one connection, which the prefetch's workers (a
// worker per CPU, up to two) and the 16 faulters all queue on.
func TestOneLanePrefetchRacesFaultsUnderChaos(t *testing.T) {
	prefetchRacesFaultsUnderChaos(t, 64, memtap.Options{})
}

func prefetchRacesFaultsUnderChaos(t *testing.T, vmid pagestore.VMID, opts memtap.Options) {
	serverInj := faultinject.New(21, faultinject.Config{ReadErr: 0.01, WriteErr: 0.01})
	addr, src := chaosBackend(t, vmid, 4*units.MiB, serverInj)

	res := stormResilience(nil)
	opts.Resilience = &res
	serverInj.SetEnabled(false)
	mt, err := memtap.NewWithOptions(vmid, addr, secret, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	serverInj.SetEnabled(true)
	desc := hypervisor.NewDescriptor(vmid, "convert", 4*units.MiB, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	total := desc.Alloc.Pages()
	pageable := total - desc.PageTablePages

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				pfn := pagestore.PFN(desc.PageTablePages + int64(w*97+i*13)%pageable)
				var err error
				for tries := 0; tries < 30; tries++ {
					if _, err = pvm.Touch(pfn); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					t.Errorf("faulter %d wedged: %v", w, err)
					return
				}
			}
		}(w)
	}
	var installed int
	var prefErr error
	for tries := 0; tries < 30; tries++ {
		var n int
		n, prefErr = mt.PrefetchRemaining(pvm, 64)
		installed += n
		if prefErr == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if prefErr != nil {
		t.Fatalf("prefetch wedged under storm: %v", prefErr)
	}
	if t.Failed() {
		return
	}

	if pvm.PresentPages() != total {
		t.Fatalf("present %d of %d after conversion", pvm.PresentPages(), total)
	}
	// Exactly-once installs: fault winners plus prefetch installs cover
	// the pageable range with no overlap.
	if got := pvm.Faults() + int64(installed); got != pageable {
		t.Errorf("fault installs %d + prefetch installs %d = %d, want %d (duplicate or lost install)",
			pvm.Faults(), installed, got, pageable)
	}
	// Memtap's own ledger: every byte it counted is a fault fetch or an
	// actually-installed prefetched page.
	if want := units.Bytes(mt.Faults()+int64(installed)) * units.PageSize; mt.FetchedBytes() != want {
		t.Errorf("FetchedBytes %v, ledger says %v", mt.FetchedBytes(), want)
	}
	// A fault whose install lost to a prefetch stream still fetched
	// remotely, so memtap may count more faults than the hypervisor —
	// never fewer.
	if mt.Faults() < pvm.Faults() {
		t.Errorf("memtap faults %d < hypervisor faults %d", mt.Faults(), pvm.Faults())
	}
	for pfn := pagestore.PFN(desc.PageTablePages); int64(pfn) < total; pfn++ {
		want, _ := src.Read(pfn)
		got, err := pvm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d corrupted in converted VM", pfn)
		}
	}
}
