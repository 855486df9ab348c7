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
	"sort"
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

// Image is the sparse memory image of one VM. Untouched pages read as
// zero. Image is safe for concurrent use.
type Image struct {
	mu      sync.RWMutex
	alloc   units.Bytes
	npages  int64
	pages   map[PFN][]byte
	epoch   uint64
	dirtyAt map[PFN]uint64
}

// NewImage creates an image for a VM with the given memory allocation.
func NewImage(alloc units.Bytes) *Image {
	return &Image{
		alloc:   alloc,
		npages:  alloc.Pages(),
		pages:   make(map[PFN][]byte),
		dirtyAt: make(map[PFN]uint64),
		epoch:   1,
	}
}

// Alloc returns the VM's nominal memory allocation.
func (im *Image) Alloc() units.Bytes { return im.alloc }

// NumPages returns the number of pages in the allocation.
func (im *Image) NumPages() int64 { return im.npages }

// Write stores a page, marking it dirty in the current epoch. Writing an
// all-zero page releases the backing storage but still records the dirty
// bit (the page changed from the server's perspective). The data is
// copied; the caller keeps ownership of the slice.
func (im *Image) Write(pfn PFN, data []byte) error {
	if len(data) > int(units.PageSize) {
		return fmt.Errorf("pagestore: page data %d bytes exceeds page size", len(data))
	}
	var p []byte
	if !isZero(data) {
		p = make([]byte, units.PageSize)
		copy(p, data)
	}
	return im.set(pfn, p)
}

// set makes p the page's contents and marks it dirty in the current
// epoch. p is a whole non-zero page the image keeps from here on, or nil
// for a zero page.
func (im *Image) set(pfn PFN, p []byte) error {
	if int64(pfn) >= im.npages {
		return fmt.Errorf("%w: pfn %d, allocation %d pages", ErrOutOfRange, pfn, im.npages)
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	if p == nil {
		delete(im.pages, pfn)
	} else {
		im.pages[pfn] = p
	}
	im.dirtyAt[pfn] = im.epoch
	return nil
}

// Read returns the page's contents. Untouched or zeroed pages return a
// shared zero page; callers must not modify the returned slice.
func (im *Image) Read(pfn PFN) ([]byte, error) {
	if int64(pfn) >= im.npages {
		return nil, fmt.Errorf("%w: pfn %d, allocation %d pages", ErrOutOfRange, pfn, im.npages)
	}
	im.mu.RLock()
	defer im.mu.RUnlock()
	if p, ok := im.pages[pfn]; ok {
		return p, nil
	}
	return zeroPage, nil
}

// TouchedPages returns the number of pages with non-zero contents.
func (im *Image) TouchedPages() int64 {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return int64(len(im.pages))
}

// TouchedBytes returns the resident (non-zero) size of the image.
func (im *Image) TouchedBytes() units.Bytes {
	return units.PagesBytes(im.TouchedPages())
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

// DirtySince returns the PFNs dirtied in epochs > epoch, sorted.
func (im *Image) DirtySince(epoch uint64) []PFN {
	im.mu.RLock()
	defer im.mu.RUnlock()
	var out []PFN
	for pfn, e := range im.dirtyAt {
		if e > epoch {
			out = append(out, pfn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllTouched returns the PFNs of all non-zero pages, sorted.
func (im *Image) AllTouched() []PFN {
	im.mu.RLock()
	defer im.mu.RUnlock()
	out := make([]PFN, 0, len(im.pages))
	for pfn := range im.pages {
		out = append(out, pfn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClearDirty forgets all dirty tracking (used after a full upload when the
// baseline is re-established).
func (im *Image) ClearDirty() {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.dirtyAt = make(map[PFN]uint64)
}

var zeroPage = make([]byte, units.PageSize)

// isZero scans eight bytes at a time, then the tail.
func isZero(p []byte) bool {
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

// IsZeroPage reports whether p contains only zero bytes.
func IsZeroPage(p []byte) bool { return isZero(p) }

// IsSharedZero reports whether p is the package's shared zero page —
// the slice DecodePage returns for zero tokens. A pointer compare, so
// receivers on the fault path can recognize an elided zero page without
// scanning 4 KiB.
func IsSharedZero(p []byte) bool {
	return len(p) == len(zeroPage) && &p[0] == &zeroPage[0]
}
