package hypervisor

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// blockingPager releases fetches only when the test says so, letting the
// tests below line up several faults inside the fetch window.
type blockingPager struct {
	gate    chan struct{}
	fetches atomic.Int64
	fill    func(pfn pagestore.PFN) []byte
}

func (p *blockingPager) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	p.fetches.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	return p.fill(pfn), nil
}

func pageOf(pfn pagestore.PFN) []byte {
	return bytes.Repeat([]byte{byte(pfn%251 + 1)}, int(units.PageSize))
}

// TestTouchConcurrentSamePFN proves the fault path no longer holds vm.mu
// across the pager call: K goroutines fault the same absent page while the
// pager blocks, and all of them must be inside FetchPage simultaneously.
// When released, exactly one install wins and the page is counted once.
func TestTouchConcurrentSamePFN(t *testing.T) {
	const k = 8
	pager := &blockingPager{gate: make(chan struct{}), fill: pageOf}
	desc := NewDescriptor(77, "conc", 4*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(desc.PageTablePages) + 3

	var wg sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := vm.Touch(pfn); err != nil {
				errs <- err
			}
		}()
	}
	// All K faulters must reach the pager concurrently — impossible with
	// the old lock-across-fetch path, which would admit one at a time.
	for pager.fetches.Load() < k {
		runtime.Gosched()
	}
	close(pager.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := vm.Faults(); got != 1 {
		t.Fatalf("Faults = %d after %d concurrent touches of one page, want 1", got, k)
	}
	if got := vm.FetchedBytes(); got != units.PageSize {
		t.Fatalf("FetchedBytes = %v, want one page", got)
	}
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageOf(pfn)) {
		t.Fatal("page contents corrupted by racing installs")
	}
}

// TestTouchKeepsPagersPage: a fault installs the pager's whole page as
// the VM's own, without a copy.
func TestTouchKeepsPagersPage(t *testing.T) {
	fetched := pageOf(9)
	vm, err := NewPartialVM(NewDescriptor(80, "own", 4*units.MiB, 1), &blockingPager{
		fill: func(pagestore.PFN) []byte { return fetched },
	})
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(vm.desc.PageTablePages)
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &fetched[0] {
		t.Fatal("the fault copied the pager's page instead of keeping it")
	}
}

// TestTouchPadsShortPage: a pager's page shorter than a page is padded
// with zeros into a fresh page, as a short guest write is.
func TestTouchPadsShortPage(t *testing.T) {
	short := []byte{1, 2, 3}
	vm, err := NewPartialVM(NewDescriptor(81, "own", 4*units.MiB, 1), &blockingPager{
		fill: func(pagestore.PFN) []byte { return short },
	})
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(vm.desc.PageTablePages)
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, units.PageSize)
	copy(want, short)
	if !bytes.Equal(got, want) {
		t.Fatalf("short page read back as %d bytes starting %v", len(got), got[:min(len(got), 4)])
	}
	if vm.Faults() != 1 || vm.FetchedBytes() != units.PageSize {
		t.Fatalf("Faults = %d, FetchedBytes = %v; want one page", vm.Faults(), vm.FetchedBytes())
	}
}

// TestInstallCopies: Install still copies, so a caller that writes to
// its slice afterwards changes nothing in the VM.
func TestInstallCopies(t *testing.T) {
	vm, err := NewPartialVM(NewDescriptor(82, "own", 4*units.MiB, 1), &blockingPager{fill: pageOf})
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(vm.desc.PageTablePages)
	data := pageOf(pfn)
	if ok, err := vm.Install(pfn, data); !ok || err != nil {
		t.Fatalf("Install = %v, %v", ok, err)
	}
	for i := range data {
		data[i] = 0xEE
	}
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pageOf(pfn)) {
		t.Fatal("a write to the caller's slice after Install reached the VM")
	}
}

// TestInstallPagesRacesTouchAndWrite runs batch installs against guest
// faults and guest writes on the same pages. Every page ends up present
// once: a written page keeps the guest's data and stays dirty whatever
// came after it, every other page holds the fetched contents, and
// installs plus faults count each unwritten page exactly once.
func TestInstallPagesRacesTouchAndWrite(t *testing.T) {
	const batch = 16
	vm, err := NewPartialVM(NewDescriptor(83, "conc", 4*units.MiB, 1), &blockingPager{fill: pageOf})
	if err != nil {
		t.Fatal(err)
	}
	npages := vm.desc.Alloc.Pages()
	start := pagestore.PFN(vm.desc.PageTablePages)
	guest := bytes.Repeat([]byte{0xAB}, int(units.PageSize))
	written := func(pfn pagestore.PFN) bool { return pfn%7 == 0 }

	var installed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // prefetcher: forward, one batch and one lock pair at a time
		defer wg.Done()
		for lo := start; int64(lo) < npages; lo += batch {
			var pfns []pagestore.PFN
			var pages [][]byte
			for pfn := lo; pfn < lo+batch && int64(pfn) < npages; pfn++ {
				pfns, pages = append(pfns, pfn), append(pages, pageOf(pfn))
			}
			n, err := vm.InstallPages(pfns, pages)
			if err != nil {
				t.Error(err)
				return
			}
			installed.Add(int64(n))
		}
	}()
	go func() { // guest faulting backward
		defer wg.Done()
		for pfn := pagestore.PFN(npages - 1); pfn >= start; pfn-- {
			if _, err := vm.Touch(pfn); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // guest overwriting every seventh page, backward too
		defer wg.Done()
		for pfn := pagestore.PFN(npages - 1); pfn >= start; pfn-- {
			if written(pfn) {
				if err := vm.Write(pfn, guest); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	if got := vm.PresentPages(); got != npages {
		t.Fatalf("PresentPages = %d, want %d", got, npages)
	}
	dirty := map[pagestore.PFN]bool{}
	for _, pfn := range vm.DirtyPages() {
		dirty[pfn] = true
	}
	var unwritten int64
	for pfn := start; int64(pfn) < npages; pfn++ {
		got, err := vm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		want := pageOf(pfn)
		if written(pfn) {
			want = guest
			if !dirty[pfn] {
				t.Fatalf("written pfn %d lost its dirty mark", pfn)
			}
		} else {
			unwritten++
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d holds stale contents: a fetched page overwrote newer state", pfn)
		}
	}
	// An unwritten page counts once, by an install or a fault. A written
	// page counts once if a fetched copy got there before the write
	// replaced it, else not at all.
	total := installed.Load() + vm.Faults()
	if total < unwritten || total > npages-int64(start) {
		t.Fatalf("installs(%d) + faults(%d) = %d for %d unwritten of %d pageable pages: a page was lost or double-counted",
			installed.Load(), vm.Faults(), total, unwritten, npages-int64(start))
	}
	if got, want := vm.FetchedBytes(), units.Bytes(vm.Faults())*units.PageSize; got != want {
		t.Fatalf("FetchedBytes = %v, want %v", got, want)
	}
}

// TestTouchLosesToGuestWrite checks the recheck-after-fetch: a guest write
// that lands while the fetch is in flight must win over the stale fetched
// copy.
func TestTouchLosesToGuestWrite(t *testing.T) {
	pager := &blockingPager{gate: make(chan struct{}), fill: pageOf}
	desc := NewDescriptor(78, "conc", 4*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(desc.PageTablePages)
	want := bytes.Repeat([]byte{0xAB}, int(units.PageSize))

	done := make(chan error, 1)
	go func() {
		_, err := vm.Touch(pfn)
		done <- err
	}()
	for pager.fetches.Load() == 0 {
		runtime.Gosched()
	}
	// The guest overwrites the page while the fetch is on the wire.
	if err := vm.Write(pfn, want); err != nil {
		t.Fatal(err)
	}
	close(pager.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stale fetched page overwrote a newer guest write")
	}
	if vm.Faults() != 0 {
		t.Fatalf("Faults = %d, want 0: the lost install must not be counted", vm.Faults())
	}
	if _, ok := vm.written[pfn]; !ok {
		t.Fatal("page lost its dirty mark")
	}
}

// TestInstallRacesFaults drives Install (the prefetcher) against Touch
// (guest faults) over the whole address space; every page must end up
// present exactly once with correct contents, and fault accounting plus
// prefetch accounting must partition the pageable space.
func TestInstallRacesFaults(t *testing.T) {
	pager := &blockingPager{fill: pageOf} // nil gate: fetches return immediately
	desc := NewDescriptor(79, "conc", 4*units.MiB, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	npages := desc.Alloc.Pages()
	start := pagestore.PFN(desc.PageTablePages)

	var installed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // prefetcher sweeping forward
		defer wg.Done()
		for pfn := start; int64(pfn) < npages; pfn++ {
			ok, err := vm.Install(pfn, pageOf(pfn))
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				installed.Add(1)
			}
		}
	}()
	go func() { // guest faulting backward
		defer wg.Done()
		for pfn := pagestore.PFN(npages - 1); pfn >= start; pfn-- {
			if _, err := vm.Touch(pfn); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := vm.PresentPages(); got != npages {
		t.Fatalf("PresentPages = %d, want %d", got, npages)
	}
	pageable := npages - desc.PageTablePages
	if total := installed.Load() + vm.Faults(); total != pageable {
		t.Fatalf("installs(%d) + faults(%d) = %d, want exactly %d: a page was double-counted or lost",
			installed.Load(), vm.Faults(), total, pageable)
	}
	if got, want := vm.FetchedBytes(), units.Bytes(vm.Faults())*units.PageSize; got != want {
		t.Fatalf("FetchedBytes = %v, want %v", got, want)
	}
	for pfn := start; int64(pfn) < npages; pfn++ {
		got, err := vm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageOf(pfn)) {
			t.Fatalf("pfn %d corrupted", pfn)
		}
	}
}
