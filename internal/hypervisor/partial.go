package hypervisor

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Pager retrieves missing pages for a partial VM. In the prototype this is
// the per-VM memtap user process fetching from the memory server; tests
// may supply an in-process implementation.
//
// The page FetchPage returns is the caller's to keep and is never written
// again, by the pager or by anyone else: the partial VM installs that
// slice as its page instead of copying it. Only the shared zero page
// (pagestore.IsSharedZero) is handed to every caller alike; it is
// installed as a zero page. A page shorter than a page is padded into a
// fresh one on install.
type Pager interface {
	FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error)
}

// PagerFunc adapts a function to the Pager interface.
type PagerFunc func(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error)

// FetchPage calls f.
func (f PagerFunc) FetchPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	return f(id, pfn)
}

// FetchHolder is implemented by a Pager that coalesces concurrent
// fetches of one page (memtap's single flight) and can keep doing so
// past the end of a fetch: from the first HoldFetch of a page until the
// last ReleaseFetch, every FetchPage for it must be served by one
// successful remote fetch. Touch brackets each fault with the pair.
type FetchHolder interface {
	HoldFetch(pfn pagestore.PFN)
	ReleaseFetch(pfn pagestore.PFN)
}

// PartialVM is a VM created from a descriptor with most of its memory
// absent. Page accesses to absent pages fault; the fault handler allocates
// frames at 2 MiB chunk granularity (§4.2) and asks the Pager for the
// page's contents. Writes dirty local pages, which reintegration later
// pushes back to the owner. PartialVM is safe for concurrent use.
type PartialVM struct {
	desc   *Descriptor
	pager  Pager
	holder FetchHolder // pager, if it is one; else nil

	mu      sync.Mutex
	mem     *pagestore.Image
	present []uint64 // bitmap over guest pages
	chunks  map[int64]struct{}

	// written tracks pages the guest modified locally — the dirty state
	// reintegration must push home. Pages merely faulted in stay clean:
	// the home's copy already matches them.
	written map[pagestore.PFN]struct{}

	faults       int64
	fetchedBytes units.Bytes
}

// NewPartialVM creates a partial VM from a descriptor. Only the page-table
// frames are considered present initially (their contents travel with the
// descriptor); every other access will fault through the pager.
func NewPartialVM(desc *Descriptor, pager Pager) (*PartialVM, error) {
	if pager == nil {
		return nil, fmt.Errorf("hypervisor: partial VM %04d needs a pager", desc.VMID)
	}
	npages := desc.Alloc.Pages()
	vm := &PartialVM{
		desc:    desc,
		pager:   pager,
		mem:     pagestore.NewImage(desc.Alloc),
		present: make([]uint64, (npages+63)/64),
		chunks:  make(map[int64]struct{}),
		written: make(map[pagestore.PFN]struct{}),
	}
	vm.holder, _ = pager.(FetchHolder)
	// Page-table frames arrive with the descriptor.
	for i := int64(0); i < desc.PageTablePages && i < npages; i++ {
		vm.markPresent(pagestore.PFN(i))
	}
	return vm, nil
}

// Desc returns the VM's descriptor.
func (vm *PartialVM) Desc() *Descriptor { return vm.desc }

// Image exposes the VM's local memory image (for reintegration encoding).
func (vm *PartialVM) Image() *pagestore.Image { return vm.mem }

func (vm *PartialVM) isPresent(pfn pagestore.PFN) bool {
	return vm.present[pfn/64]&(1<<(pfn%64)) != 0
}

func (vm *PartialVM) markPresent(pfn pagestore.PFN) {
	vm.present[pfn/64] |= 1 << (pfn % 64)
	chunk := int64(pfn) * int64(units.PageSize) / int64(units.ChunkSize)
	vm.chunks[chunk] = struct{}{}
}

// Touch emulates a guest read access to a page. If the page is absent, it
// faults: a frame is allocated and the pager supplies the contents. It
// reports whether a fault occurred.
//
// The lock is NOT held across the pager call: a fetch crosses the network
// and holding vm.mu for its duration would serialise every fault of the VM
// behind one page's round trip (and deadlock against a prefetcher
// installing into the same VM). Instead the fault path is
// check → fetch unlocked → recheck-and-install. Two vCPUs faulting the
// same page may therefore both reach the pager, and whichever Touch
// reacquires the lock first installs. The loser observes the page present
// and keeps the newer state, counting nothing — so faults and fetchedBytes
// track pages actually installed by the fault path, never double-counting
// a PFN.
//
// With a pager that is a FetchHolder (memtap) the page is also fetched
// only once. The invariant: a Touch that calls FetchPage holds the page's
// flight, took the hold before it last saw the page absent, and lets go
// only after its install has returned. So of two faults on one page,
// either the second took its hold before the first let go — the flight
// was open throughout and hands the second the first's page — or it took
// it after, and then the look that follows the hold finds the page the
// first installed and no fetch happens.
func (vm *PartialVM) Touch(pfn pagestore.PFN) (faulted bool, err error) {
	if int64(pfn) >= vm.desc.Alloc.Pages() {
		return false, fmt.Errorf("hypervisor: vm %04d: pfn %d out of range", vm.desc.VMID, pfn)
	}
	vm.mu.Lock()
	present := vm.isPresent(pfn)
	vm.mu.Unlock()
	if present {
		return false, nil
	}
	if vm.holder != nil {
		vm.holder.HoldFetch(pfn)
		defer vm.holder.ReleaseFetch(pfn)
		vm.mu.Lock()
		present = vm.isPresent(pfn)
		vm.mu.Unlock()
		if present {
			return true, nil // another fault installed it before this one's hold
		}
	}
	page, err := vm.pager.FetchPage(vm.desc.VMID, pfn)
	if err != nil {
		return true, fmt.Errorf("hypervisor: vm %04d: fetch pfn %d: %w", vm.desc.VMID, pfn, err)
	}
	// The pager's page becomes the VM's own (see Pager). A page that lost
	// to another fault, an install or a guest write is not counted.
	vm.mu.Lock()
	defer vm.mu.Unlock()
	n, err := vm.mem.Keep([]pagestore.PFN{pfn}, [][]byte{page}, vm.claimLocked)
	if n == 1 {
		vm.faults++
		vm.fetchedBytes += units.PageSize
	}
	return true, err
}

// claimLocked marks an absent page present for the install about to
// store it; a present page holds newer state than anything fetched for
// it, so it is refused. vm.mu is held.
func (vm *PartialVM) claimLocked(pfn pagestore.PFN) bool {
	if vm.isPresent(pfn) {
		return false
	}
	vm.markPresent(pfn)
	return true
}

// Write emulates a guest write access: the page becomes present without a
// fetch when the guest overwrites it entirely (newly allocated memory,
// recycled buffers) — the optimisation that lets reintegration skip pages
// that were completely overwritten (§4.4.3). Partial overwrites of absent
// pages must fetch first; callers model that by calling Touch beforehand.
func (vm *PartialVM) Write(pfn pagestore.PFN, data []byte) error {
	if int64(pfn) >= vm.desc.Alloc.Pages() {
		return fmt.Errorf("hypervisor: vm %04d: pfn %d out of range", vm.desc.VMID, pfn)
	}
	vm.mu.Lock()
	defer vm.mu.Unlock()
	if err := vm.mem.Write(pfn, data); err != nil {
		return err
	}
	vm.markPresent(pfn)
	vm.written[pfn] = struct{}{}
	return nil
}

// Install is InstallPages of one page applied to a copy of data: the
// caller keeps its slice and may write to it afterwards. It reports
// whether the page was installed.
func (vm *PartialVM) Install(pfn pagestore.PFN, data []byte) (bool, error) {
	p := data // an oversized page is refused, so it needs no copy
	if len(data) <= int(units.PageSize) {
		p = make([]byte, units.PageSize)
		copy(p, data)
	}
	n, err := vm.InstallPages([]pagestore.PFN{pfn}, [][]byte{p})
	return n == 1, err
}

// InstallPages stores pages fetched from the memory server, pages[i]
// being the contents of pfns[i], without marking them dirty: their
// contents match the home's copy, so reintegration need not push them.
// Prefetchers use it to stream in absent pages. Each page becomes the
// VM's own, not a copy (see Pager for the contract); nil or the shared
// zero page is a zero page. The present bits are rechecked and the pages
// stored under one acquisition of the VM's lock and one of its image's.
// It returns how many pages were installed: a page whose pfn is present
// already raced with a fault, an install or a guest write, and the newer
// local state was kept, so callers accounting transferred-and-installed
// bytes must not count it. An error installs nothing.
func (vm *PartialVM) InstallPages(pfns []pagestore.PFN, pages [][]byte) (int, error) {
	for _, pfn := range pfns {
		if int64(pfn) >= vm.desc.Alloc.Pages() {
			return 0, fmt.Errorf("hypervisor: vm %04d: pfn %d out of range", vm.desc.VMID, pfn)
		}
	}
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.mem.Keep(pfns, pages, vm.claimLocked)
}

// AbsentPages returns up to max absent PFNs in ascending order (all of
// them if max <= 0) — the work list for a prefetcher converting the
// partial VM to a full one (§4.4.4).
func (vm *PartialVM) AbsentPages(max int) []pagestore.PFN {
	return vm.AbsentPagesFrom(0, max)
}

// AbsentPagesFrom returns up to max absent PFNs >= from in ascending
// order (all of them if max <= 0). The scan walks the presence bitmap a
// word at a time, skipping fully-present 64-page runs without touching
// individual bits, so prefetchers restarting the scan near a fault
// hint pay for the absent pages they find, not for the populated region
// they skip.
func (vm *PartialVM) AbsentPagesFrom(from pagestore.PFN, max int) []pagestore.PFN {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	npages := vm.desc.Alloc.Pages()
	if int64(from) >= npages {
		return nil
	}
	var out []pagestore.PFN
	w := int(from / 64)
	low := uint(from % 64)
	for ; w < len(vm.present); w++ {
		absent := ^vm.present[w]
		if low != 0 {
			absent &^= (1 << low) - 1
			low = 0
		}
		for absent != 0 {
			pfn := pagestore.PFN(w*64 + bits.TrailingZeros64(absent))
			if int64(pfn) >= npages {
				return out
			}
			out = append(out, pfn)
			if max > 0 && len(out) >= max {
				return out
			}
			absent &= absent - 1
		}
	}
	return out
}

// Read returns a page's contents, faulting it in if absent.
func (vm *PartialVM) Read(pfn pagestore.PFN) ([]byte, error) {
	if _, err := vm.Touch(pfn); err != nil {
		return nil, err
	}
	return vm.mem.Read(pfn)
}

// Faults returns the number of page faults serviced so far.
func (vm *PartialVM) Faults() int64 {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.faults
}

// FetchedBytes returns the total bytes fetched on demand.
func (vm *PartialVM) FetchedBytes() units.Bytes {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.fetchedBytes
}

// PresentPages counts pages currently present.
func (vm *PartialVM) PresentPages() int64 {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	var n int64
	for _, w := range vm.present {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// ChunksAllocated returns how many 2 MiB chunks back the present pages —
// the VM's real memory footprint on the consolidation host.
func (vm *PartialVM) ChunksAllocated() int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return len(vm.chunks)
}

// FootprintBytes returns the chunk-granular memory the partial VM pins on
// its host.
func (vm *PartialVM) FootprintBytes() units.Bytes {
	return units.Bytes(vm.ChunksAllocated()) * units.ChunkSize
}

// DirtyPages returns the PFNs the guest wrote locally, sorted.
func (vm *PartialVM) DirtyPages() []pagestore.PFN {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]pagestore.PFN, 0, len(vm.written))
	for pfn := range vm.written {
		out = append(out, pfn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtySnapshot encodes the pages the guest wrote locally — the state
// reintegration pushes back to the owner. Pages that were only faulted in
// are excluded: the home's DRAM copy already holds them (§4.2). The
// encode runs on every core (pagestore.EncodePages).
func (vm *PartialVM) DirtySnapshot() (data []byte, pages int, err error) {
	pfns := vm.DirtyPages()
	data, err = pagestore.EncodePages(vm.mem, pfns)
	return data, len(pfns), err
}
