package memtap

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// gatedClient blocks GetPage until released, counting remote fetches — the
// instrument for proving single-flight deduplication.
type gatedClient struct {
	src     *pagestore.Image
	gate    chan struct{}
	fetches atomic.Int64
	err     error
}

func (g *gatedClient) GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	g.fetches.Add(1)
	if g.gate != nil {
		<-g.gate
	}
	if g.err != nil {
		return nil, g.err
	}
	return g.src.Read(pfn)
}

func (g *gatedClient) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	out := make(map[pagestore.PFN][]byte, len(pfns))
	for _, pfn := range pfns {
		p, err := g.src.Read(pfn)
		if err != nil {
			return nil, err
		}
		out[pfn] = p
	}
	return out, nil
}

func (g *gatedClient) Close() error { return nil }

func seededImage(t *testing.T, alloc units.Bytes) *pagestore.Image {
	t.Helper()
	im := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		if err := im.Write(pfn, bytes.Repeat([]byte{byte(pfn%251 + 1)}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

// TestSingleFlightDedup is the headline single-flight proof: K concurrent
// faults on one PFN issue exactly 1 remote fetch, every waiter gets the
// page (none lost), and the accounting counts the page once.
func TestSingleFlightDedup(t *testing.T) {
	const k = 64
	src := seededImage(t, 2*units.MiB)
	gc := &gatedClient{src: src, gate: make(chan struct{})}
	mt := NewWithClient(9, gc)

	pfn := pagestore.PFN(17)
	want, _ := src.Read(pfn)

	var wg sync.WaitGroup
	got := make([][]byte, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = mt.FetchPage(9, pfn)
		}(i)
	}
	// Wait until the leader is inside the remote fetch and every follower
	// has had a chance to pile onto the in-flight entry.
	for gc.fetches.Load() == 0 {
		runtime.Gosched()
	}
	for mt.DedupedFaults() < k-1 {
		runtime.Gosched()
	}
	close(gc.gate)
	wg.Wait()

	if n := gc.fetches.Load(); n != 1 {
		t.Fatalf("%d concurrent faults issued %d remote fetches, want exactly 1", k, n)
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d lost: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("waiter %d got wrong page contents", i)
		}
	}
	if mt.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1 (leader only)", mt.Faults())
	}
	if mt.DedupedFaults() != k-1 {
		t.Fatalf("DedupedFaults = %d, want %d", mt.DedupedFaults(), k-1)
	}
	if mt.FetchedBytes() != units.PageSize {
		t.Fatalf("FetchedBytes = %v, want one page", mt.FetchedBytes())
	}
}

// TestSingleFlightSharesErrors checks waiters share the leader's failure
// instead of hanging or issuing their own doomed fetches.
func TestSingleFlightSharesErrors(t *testing.T) {
	const k = 16
	boom := errors.New("backend detonated")
	gc := &gatedClient{src: seededImage(t, units.MiB), gate: make(chan struct{}), err: boom}
	mt := NewWithClient(3, gc)

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = mt.FetchPage(3, 5)
		}(i)
	}
	for mt.DedupedFaults() < k-1 {
		runtime.Gosched()
	}
	close(gc.gate)
	wg.Wait()

	if n := gc.fetches.Load(); n != 1 {
		t.Fatalf("failing fetch issued %d remote calls, want 1", n)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want shared leader error", i, err)
		}
	}
	if mt.Faults() != 0 || mt.FetchedBytes() != 0 {
		t.Fatalf("failed fetch was counted: faults=%d bytes=%v", mt.Faults(), mt.FetchedBytes())
	}
}

// TestSingleFlightRefetchesAfterCompletion: the in-flight entry must be
// removed once the leader finishes, so a later fault on the same PFN does
// a fresh remote fetch (the hypervisor only re-faults a page it genuinely
// lacks).
func TestSingleFlightRefetchesAfterCompletion(t *testing.T) {
	src := seededImage(t, units.MiB)
	gc := &gatedClient{src: src} // nil gate: no blocking
	mt := NewWithClient(4, gc)
	if _, err := mt.FetchPage(4, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := mt.FetchPage(4, 8); err != nil {
		t.Fatal(err)
	}
	if n := gc.fetches.Load(); n != 2 {
		t.Fatalf("sequential faults issued %d fetches, want 2 (stale in-flight entry?)", n)
	}
	if mt.DedupedFaults() != 0 {
		t.Fatal("sequential faults were wrongly coalesced")
	}
}

// TestHeldFlightOutlivesFetch is the install window, closed: a fault that
// took its hold while the page was absent (HoldFetch, as PartialVM.Touch
// does) and reaches FetchPage only after another fault has fetched and
// installed the page is handed that fetch's page, not a second remote
// fetch. Once the last holder lets go the flight is forgotten, and a
// failed fetch is forgotten at once, hold or no hold.
func TestHeldFlightOutlivesFetch(t *testing.T) {
	src := seededImage(t, units.MiB)
	gc := &gatedClient{src: src}
	mt := NewWithClient(5, gc)
	pvm, err := hypervisor.NewPartialVM(hypervisor.NewDescriptor(5, "held", units.MiB, 1), mt)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(pvm.Desc().PageTablePages + 3)

	mt.HoldFetch(pfn) // the straggler saw "absent"...
	if faulted, err := pvm.Touch(pfn); err != nil || !faulted {
		t.Fatalf("Touch = %v, %v", faulted, err)
	}
	page, err := mt.FetchPage(5, pfn) // ...and asks after the install
	want, _ := src.Read(pfn)
	if err != nil || !bytes.Equal(page, want) {
		t.Fatalf("held FetchPage: %v", err)
	}
	if n, d := gc.fetches.Load(), mt.DedupedFaults(); n != 1 || d != 1 || mt.Faults() != pvm.Faults() {
		t.Fatalf("held flight: %d remote fetches, %d coalesced, memtap %d faults vs hypervisor %d; want 1, 1, equal",
			n, d, mt.Faults(), pvm.Faults())
	}
	mt.ReleaseFetch(pfn)
	if _, err := mt.FetchPage(5, pfn); err != nil || gc.fetches.Load() != 2 {
		t.Fatalf("after the last release: %d remote fetches (err %v), want a fresh one", gc.fetches.Load(), err)
	}

	mt.HoldFetch(pfn)
	defer mt.ReleaseFetch(pfn)
	gc.err = errors.New("backend detonated")
	if _, err := mt.FetchPage(5, pfn); err == nil {
		t.Fatal("failing fetch succeeded")
	}
	gc.err = nil
	if _, err := mt.FetchPage(5, pfn); err != nil || gc.fetches.Load() != 4 {
		t.Fatalf("retry under the same hold: %d remote fetches (err %v), want the failed one forgotten", gc.fetches.Load(), err)
	}
}

// TestPipelinedPrefetchConvertsToFull runs the pipelined path end to end:
// pooled connections, several streams, a real server — the VM must end up
// full with byte-identical contents and exact accounting, same as serial.
func TestPipelinedPrefetchConvertsToFull(t *testing.T) {
	alloc := 4 * units.MiB
	addr, src := startBackend(t, 88, alloc)

	res := fastCfg()
	mt, err := NewWithOptions(88, addr, secret, Options{
		Resilience:      &res,
		PoolSize:        4,
		PrefetchStreams: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	desc := hypervisor.NewDescriptor(88, "pipelined", alloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := mt.PrefetchRemaining(pvm, 128)
	if err != nil {
		t.Fatal(err)
	}
	total := desc.Alloc.Pages()
	if pvm.PresentPages() != total {
		t.Fatalf("present %d of %d pages after pipelined prefetch", pvm.PresentPages(), total)
	}
	if want := int(total - desc.PageTablePages); installed != want {
		t.Fatalf("installed = %d, want %d", installed, want)
	}
	if got, want := mt.FetchedBytes(), units.Bytes(installed)*units.PageSize; got != want {
		t.Fatalf("FetchedBytes = %v, want %v", got, want)
	}
	for pfn := pagestore.PFN(desc.PageTablePages); int64(pfn) < total; pfn++ {
		want, _ := src.Read(pfn)
		got, err := pvm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d corrupted by pipelined prefetch", pfn)
		}
	}
	if st := mt.Resilience(); st.State != memserver.BreakerClosed {
		t.Fatalf("pool unhealthy after clean prefetch: %+v", st)
	}
}

// TestMetricsMatchStats is PR 2's metrics-match-stats pattern applied to
// the new atomic accounting: after a concurrent fault + pipelined
// prefetch workload, the oasis_memtap_* instruments must have moved by
// exactly what the in-process counters report.
func TestMetricsMatchStats(t *testing.T) {
	faults0 := tel.faults.Value()
	bytes0 := tel.bytes.Value()
	dedup0 := tel.dedup.Value()
	prefetched0 := tel.prefetched.Value()

	alloc := 2 * units.MiB
	addr, _ := startBackend(t, 99, alloc)
	res := fastCfg()
	mt, err := NewWithOptions(99, addr, secret, Options{Resilience: &res, PoolSize: 2, PrefetchStreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	desc := hypervisor.NewDescriptor(99, "mm", alloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent faults (with same-PFN collisions), then prefetch the rest.
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				pfn := pagestore.PFN(int64(desc.PageTablePages) + int64((w/2*8+i)%32))
				if _, err := pvm.Touch(pfn); err != nil {
					t.Errorf("touch: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := mt.PrefetchRemaining(pvm, 64); err != nil {
		t.Fatal(err)
	}

	if got, want := tel.faults.Value()-faults0, float64(mt.Faults()); got != want {
		t.Errorf("oasis_memtap_faults_total moved %v, stats say %v", got, want)
	}
	if got, want := tel.bytes.Value()-bytes0, float64(mt.FetchedBytes()); got != want {
		t.Errorf("oasis_memtap_fetched_bytes_total moved %v, stats say %v", got, want)
	}
	if got, want := tel.dedup.Value()-dedup0, float64(mt.DedupedFaults()); got != want {
		t.Errorf("oasis_memtap_singleflight_dedup_total moved %v, stats say %v", got, want)
	}
	prefetchedPages := float64(mt.FetchedBytes()/units.PageSize) - float64(mt.Faults())
	if got := tel.prefetched.Value() - prefetched0; got != prefetchedPages {
		t.Errorf("oasis_memtap_prefetched_pages_total moved %v, want %v", got, prefetchedPages)
	}
	if g := tel.inflight.Value(); g != 0 {
		t.Errorf("oasis_memtap_inflight_faults = %v after quiesce", g)
	}
}
