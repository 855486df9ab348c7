// Package pagestore holds VM memory images at page granularity and is the
// substrate for both sides of partial VM migration: the home host uploads
// an image to its memory server, the memory server serves pages from it,
// and the consolidation host accumulates dirty pages that reintegration
// later pushes back.
//
// Images track dirty pages in epochs so that the differential-upload
// optimisation (§4.3) can send only pages dirtied since the previous
// upload. Pages that are entirely zero are elided from encodings: real
// guest images are dominated by zero pages and the prototype's compression
// collapses them, so the encoder marks them with a one-byte token instead.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"oasis/internal/units"
)

// PFN is a guest pseudo-physical frame number.
type PFN uint64

// VMID identifies a VM. The paper uses a unique four-digit id from the
// VM's configuration file (§4.1).
type VMID uint32

// ErrOutOfRange is returned for accesses beyond a VM's allocation.
var ErrOutOfRange = errors.New("pagestore: pfn beyond allocation")

// leafPages is the span of one table leaf: 1,024 pages, the shard
// fabric's 4 MiB placement range. maxPages (1 TiB of guest memory) bounds
// the directory a hostile allocation buys: 2 MiB of leaf pointers.
const (
	leafPages = 1024
	maxPages  = 1 << 28
)

// leaf is one directory entry of an image's page table.
type leaf struct {
	// slot holds each page in the form it arrived: nil for a zero page, a
	// whole raw page (guest writes, ApplySnapshot) or, where wire is set,
	// its wire entry (u16 token | payload), a subslice of an adopted
	// snapshot. A slot's bytes are never written again.
	slot [leafPages][]byte
	wire [leafPages]bool
	// stamp is the epoch of each page's last change; zero is clean.
	stamp [leafPages]uint64
}

// Image is the sparse memory image of one VM. Untouched pages read as
// zero. Image is safe for concurrent use.
type Image struct {
	mu     sync.RWMutex
	alloc  units.Bytes
	npages int64
	epoch  uint64
	leaves []*leaf // the table's directory; a leaf is allocated on first touch
	live   int64   // non-zero pages
	// wireLive is the bytes wire slots reference, wireHeld the bytes of the
	// snapshots they point into; Adopt bounds the difference by compacting.
	wireLive, wireHeld int64
}

// NewImage creates an image for a VM with the given memory allocation.
func NewImage(alloc units.Bytes) *Image {
	npages := max(0, min(alloc.Pages(), maxPages))
	return &Image{alloc: alloc, npages: npages, epoch: 1, leaves: make([]*leaf, (npages+leafPages-1)/leafPages)}
}

// Alloc returns the VM's nominal memory allocation.
func (im *Image) Alloc() units.Bytes { return im.alloc }

// NumPages returns the number of pages in the allocation.
func (im *Image) NumPages() int64 { return im.npages }

// checkRange compares unsigned: a PFN past 1<<63 is no negative index.
func (im *Image) checkRange(pfn PFN) error {
	if uint64(pfn) >= uint64(im.npages) {
		return fmt.Errorf("%w: pfn %d, allocation %d pages", ErrOutOfRange, pfn, im.npages)
	}
	return nil
}

// Write stores a page, marking it dirty in the current epoch. Writing an
// all-zero page releases the backing storage but still records the dirty
// bit (the page changed from the server's perspective). The data is
// copied; the caller keeps ownership of the slice.
func (im *Image) Write(pfn PFN, data []byte) error {
	if len(data) > int(units.PageSize) {
		return fmt.Errorf("pagestore: page data %d bytes exceeds page size", len(data))
	}
	var p []byte
	if !IsZeroPage(data) {
		p = make([]byte, units.PageSize)
		copy(p, data)
	}
	return im.set(pfn, p)
}

// Keep stores pages[i] as the page of pfns[i], for each i whose pfn take
// accepts, under one acquisition of the lock, marks each stored page
// dirty in the current epoch, and returns how many it stored. A whole
// page is kept, not copied: from here on nobody writes its bytes, the
// caller included. A shorter page is padded into a fresh one, and a zero
// page (nil, the shared zero page or all zeros) keeps no storage. take
// runs under the image lock, once per page in order, and may record what
// it accepts. Every pfn and length is checked before take is first
// called, so an error stores nothing.
func (im *Image) Keep(pfns []PFN, pages [][]byte, take func(PFN) bool) (int, error) {
	if len(pages) != len(pfns) {
		return 0, fmt.Errorf("pagestore: %d pages for %d pfns", len(pages), len(pfns))
	}
	for i, pfn := range pfns {
		if err := im.checkRange(pfn); err != nil {
			return 0, err
		}
		if len(pages[i]) > int(units.PageSize) {
			return 0, fmt.Errorf("pagestore: page data %d bytes exceeds page size", len(pages[i]))
		}
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	n := 0
	for i, pfn := range pfns {
		if !take(pfn) {
			continue
		}
		p := pages[i]
		switch {
		case len(p) == 0 || IsSharedZero(p) || IsZeroPage(p):
			p = nil
		case len(p) < int(units.PageSize):
			p = append(make([]byte, 0, units.PageSize), p...)[:units.PageSize]
		}
		im.setLocked(pfn, p, false)
		n++
	}
	return n, nil
}

// set makes p the page's contents and marks it dirty in the current
// epoch. p is a whole non-zero page the image keeps from here on, or nil
// for a zero page.
func (im *Image) set(pfn PFN, p []byte) error {
	if err := im.checkRange(pfn); err != nil {
		return err
	}
	im.mu.Lock()
	im.setLocked(pfn, p, false)
	im.mu.Unlock()
	return nil
}

// setLocked stores b (see leaf.slot for its forms) as the page of an
// in-range pfn and stamps it with the current epoch.
func (im *Image) setLocked(pfn PFN, b []byte, wire bool) {
	lf := im.leaves[pfn/leafPages]
	if lf == nil {
		lf = new(leaf)
		im.leaves[pfn/leafPages] = lf
	}
	i := pfn % leafPages
	old := lf.slot[i]
	if lf.wire[i] {
		im.wireLive -= int64(len(old))
	}
	if wire {
		im.wireLive += int64(len(b))
	}
	if old != nil {
		im.live--
	}
	if b != nil {
		im.live++
	}
	lf.slot[i], lf.wire[i], lf.stamp[i] = b, wire, im.epoch
}

// slotLocked returns an in-range page's slot and whether it is wire form.
func (im *Image) slotLocked(pfn PFN) ([]byte, bool) {
	if lf := im.leaves[pfn/leafPages]; lf != nil {
		return lf.slot[pfn%leafPages], lf.wire[pfn%leafPages]
	}
	return nil, false
}

// Read returns the page's contents. Untouched or zeroed pages return a
// shared zero page; callers must not modify the returned slice. A page
// held as a wire entry is decoded into a fresh page and stays held as
// it was: reading never changes what the image serves next.
func (im *Image) Read(pfn PFN) ([]byte, error) {
	if err := im.checkRange(pfn); err != nil {
		return nil, err
	}
	im.mu.RLock()
	b, wire := im.slotLocked(pfn)
	im.mu.RUnlock()
	switch {
	case b == nil:
		return zeroPage, nil
	case wire:
		return DecodePage(binary.BigEndian.Uint16(b), b[2:])
	}
	return b, nil
}

// AppendEntry appends the page's wire encoding (u16 token | payload): a
// wire entry as it arrived, a raw page through EncodePageAppend.
func (im *Image) AppendEntry(out []byte, pfn PFN) ([]byte, error) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.appendEntryLocked(out, pfn)
}

func (im *Image) appendEntryLocked(out []byte, pfn PFN) ([]byte, error) {
	if err := im.checkRange(pfn); err != nil {
		return nil, err
	}
	b, wire := im.slotLocked(pfn)
	if wire {
		return append(out, b...), nil
	}
	return EncodePageAppend(out, b), nil
}

// AppendEntries appends u64 pfn | u16 token | payload for each pfn, in
// order, under one acquisition of the image lock: the body of an image
// file and of a GetPages reply alike.
func (im *Image) AppendEntries(out []byte, pfns []PFN) ([]byte, error) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.appendEntriesLocked(out, pfns)
}

// appendEntriesLocked is AppendEntries with the read lock held by the
// caller: the snapshot encoder's shards share one acquisition.
func (im *Image) appendEntriesLocked(out []byte, pfns []PFN) ([]byte, error) {
	for _, pfn := range pfns {
		var err error
		out = binary.BigEndian.AppendUint64(out, uint64(pfn))
		if out, err = im.appendEntryLocked(out, pfn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TouchedPages returns the number of pages with non-zero contents (a
// page held as a wire entry counts; encoders emit none for a zero page).
func (im *Image) TouchedPages() int64 {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.live
}

// Epoch returns the current dirty epoch.
func (im *Image) Epoch() uint64 {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.epoch
}

// NextEpoch advances the dirty epoch and returns the epoch that was
// current before the call. Pages dirtied from now on belong to the new
// epoch; DirtySince(returned value) will report them.
func (im *Image) NextEpoch() uint64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	prev := im.epoch
	im.epoch++
	return prev
}

// collectLocked returns, ascending, the PFNs whose slot passes keep.
func (im *Image) collectLocked(out []PFN, keep func(lf *leaf, i int) bool) []PFN {
	for d, lf := range im.leaves {
		for i := 0; lf != nil && i < leafPages; i++ {
			if keep(lf, i) {
				out = append(out, PFN(d*leafPages+i))
			}
		}
	}
	return out
}

// DirtySince returns the PFNs dirtied in epochs > epoch, sorted.
func (im *Image) DirtySince(epoch uint64) []PFN {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.collectLocked(nil, func(lf *leaf, i int) bool { return lf.stamp[i] > epoch })
}

// AllTouched returns the PFNs of all non-zero pages, sorted.
func (im *Image) AllTouched() []PFN {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.collectLocked(make([]PFN, 0, im.live), func(lf *leaf, i int) bool { return lf.slot[i] != nil })
}

var zeroPage = make([]byte, units.PageSize)

// IsZeroPage reports whether p contains only zero bytes, scanning eight
// at a time, then the tail.
func IsZeroPage(p []byte) bool {
	for ; len(p) >= 8; p = p[8:] {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// IsSharedZero reports whether p is the package's shared zero page —
// the slice DecodePage returns for zero tokens. A pointer compare, so
// receivers on the fault path can recognize an elided zero page without
// scanning 4 KiB.
func IsSharedZero(p []byte) bool {
	return len(p) == len(zeroPage) && &p[0] == &zeroPage[0]
}
