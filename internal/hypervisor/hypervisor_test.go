package hypervisor

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// backingPager serves pages from an image, counting fetches.
type backingPager struct {
	im      *pagestore.Image
	fetches int
	fail    bool
}

func (p *backingPager) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	if p.fail {
		return nil, errors.New("memory server unreachable")
	}
	p.fetches++
	return p.im.Read(pfn)
}

func newTestVM(t *testing.T, alloc units.Bytes) (*PartialVM, *backingPager) {
	t.Helper()
	home := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); int64(pfn) < home.NumPages(); pfn++ {
		page := bytes.Repeat([]byte{byte(pfn + 1)}, int(units.PageSize))
		if err := home.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	pager := &backingPager{im: home}
	desc := NewDescriptor(42, "test", alloc, 1)
	vm, err := NewPartialVM(desc, pager)
	if err != nil {
		t.Fatal(err)
	}
	return vm, pager
}

func TestPartialVMFaultsOnce(t *testing.T) {
	vm, pager := newTestVM(t, 8*units.MiB)
	pfn := pagestore.PFN(vm.Desc().PageTablePages) // first absent page
	faulted, err := vm.Touch(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("first touch did not fault")
	}
	faulted, err = vm.Touch(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if faulted {
		t.Fatal("second touch faulted")
	}
	if pager.fetches != 1 {
		t.Fatalf("fetches = %d, want 1", pager.fetches)
	}
	if vm.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1", vm.Faults())
	}
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != byte(pfn+1) {
		t.Fatalf("fetched page has wrong contents: %x", got[0])
	}
}

func TestPartialVMPageTablesPresent(t *testing.T) {
	vm, pager := newTestVM(t, 8*units.MiB)
	for pfn := pagestore.PFN(0); int64(pfn) < vm.Desc().PageTablePages; pfn++ {
		faulted, err := vm.Touch(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if faulted {
			t.Fatalf("page-table page %d faulted", pfn)
		}
	}
	if pager.fetches != 0 {
		t.Fatalf("page-table touches fetched %d pages", pager.fetches)
	}
}

func TestPartialVMWriteSkipsFetch(t *testing.T) {
	vm, pager := newTestVM(t, 8*units.MiB)
	pfn := pagestore.PFN(100)
	data := bytes.Repeat([]byte{0xEE}, int(units.PageSize))
	if err := vm.Write(pfn, data); err != nil {
		t.Fatal(err)
	}
	if pager.fetches != 0 {
		t.Fatal("full overwrite fetched the page")
	}
	faulted, err := vm.Touch(pfn)
	if err != nil {
		t.Fatal(err)
	}
	if faulted {
		t.Fatal("page written locally still faulted")
	}
}

func TestPartialVMChunkAccounting(t *testing.T) {
	vm, _ := newTestVM(t, 8*units.MiB)
	pagesPerChunk := int64(units.ChunkSize / units.PageSize)
	base := vm.Desc().PageTablePages
	startChunks := vm.ChunksAllocated()
	// Touch two pages in the same (new) chunk.
	chunkStart := ((base + pagesPerChunk) / pagesPerChunk) * pagesPerChunk
	if _, err := vm.Touch(pagestore.PFN(chunkStart)); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Touch(pagestore.PFN(chunkStart + 1)); err != nil {
		t.Fatal(err)
	}
	if got := vm.ChunksAllocated(); got != startChunks+1 {
		t.Fatalf("ChunksAllocated = %d, want %d", got, startChunks+1)
	}
	if vm.FootprintBytes() != units.Bytes(vm.ChunksAllocated())*units.ChunkSize {
		t.Fatal("FootprintBytes inconsistent with chunks")
	}
}

func TestPartialVMFetchError(t *testing.T) {
	vm, pager := newTestVM(t, 8*units.MiB)
	pager.fail = true
	if _, err := vm.Touch(pagestore.PFN(vm.Desc().PageTablePages)); err == nil {
		t.Fatal("fetch error not propagated")
	}
}

func TestPartialVMOutOfRange(t *testing.T) {
	vm, _ := newTestVM(t, 8*units.MiB)
	if _, err := vm.Touch(pagestore.PFN(vm.Desc().Alloc.Pages())); err == nil {
		t.Error("out-of-range touch accepted")
	}
	if err := vm.Write(pagestore.PFN(vm.Desc().Alloc.Pages()), nil); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestPartialVMDirtySnapshot(t *testing.T) {
	vm, _ := newTestVM(t, 8*units.MiB)
	data := bytes.Repeat([]byte{0xAA}, int(units.PageSize))
	if err := vm.Write(500, data); err != nil {
		t.Fatal(err)
	}
	// A faulted-in page is clean: it must not appear in the dirty set.
	if _, err := vm.Touch(pagestore.PFN(vm.Desc().PageTablePages + 1)); err != nil {
		t.Fatal(err)
	}
	snap, n, err := vm.DirtySnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("dirty pages = %d, want 1 (faulted pages are clean)", n)
	}
	dst := pagestore.NewImage(8 * units.MiB)
	if err := pagestore.ApplySnapshot(dst, snap); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Read(500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("dirty snapshot did not carry the write")
	}
}

// TestDirtySnapshotSameBytesAtEveryCoreCount: the dirty snapshot is
// sharded over GOMAXPROCS and is the same bytes on one core or many.
func TestDirtySnapshotSameBytesAtEveryCoreCount(t *testing.T) {
	vm, _ := newTestVM(t, 8*units.MiB)
	r := rng.New(9)
	page := make([]byte, units.PageSize)
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			clear(page)
		case 1:
			for j := range page {
				page[j] = byte(i)
			}
		default:
			for j := range page {
				page[j] = byte(r.Uint64())
			}
		}
		if err := vm.Write(pagestore.PFN(100+5*i), page); err != nil {
			t.Fatal(err)
		}
	}
	snapAt := func(procs int) ([]byte, int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		snap, n, err := vm.DirtySnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, n
	}
	serial, n := snapAt(1)
	if n != 300 {
		t.Fatalf("dirty pages = %d, want 300", n)
	}
	for _, procs := range []int{2, 3, 8} {
		if got, pn := snapAt(procs); pn != n || !bytes.Equal(got, serial) {
			t.Fatalf("procs %d: dirty snapshot diverges: %d/%d pages, equal=%v", procs, pn, n, bytes.Equal(got, serial))
		}
	}
}

func TestNewPartialVMRequiresPager(t *testing.T) {
	if _, err := NewPartialVM(NewDescriptor(1, "x", units.MiB, 1), nil); err == nil {
		t.Error("nil pager accepted")
	}
}
