package pagestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"oasis/internal/units"
)

// On-disk image format. The Oasis prototype's memory server serves pages
// from a shared SAS drive the host wrote its VM images to before
// suspending (§4.3); this file implements that durable form: a
// random-access image file with an index so individual pages can be read
// (and decompressed) without loading the whole image.
//
//	header: magic "OAPD" | u64 alloc bytes | u32 page count
//	index:  count x (u64 pfn | u16 token | u64 payload offset)
//	payloads (concatenated, sizes implied by tokens)
const diskMagic = "OAPD"

const diskHeaderSize = 4 + 8 + 4
const diskIndexEntrySize = 8 + 2 + 8

// WriteImageFile writes every touched page of im to path in the
// random-access disk format, returning the page count. Zero pages are
// indexed with the zero token and occupy no payload bytes.
func WriteImageFile(path string, im *Image) (int, error) {
	pfns := im.AllTouched()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	hdr := make([]byte, 0, diskHeaderSize)
	hdr = append(hdr, diskMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(im.Alloc()))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(pfns)))
	if _, err := f.Write(hdr); err != nil {
		return 0, err
	}

	// Encode payloads first (in memory) so the index offsets are known.
	index := make([]byte, 0, len(pfns)*diskIndexEntrySize)
	payloads := make([]byte, 0, len(pfns)*128)
	base := uint64(diskHeaderSize + len(pfns)*diskIndexEntrySize)
	var enc []byte // one page's token | payload, reused across the loop
	for _, pfn := range pfns {
		page, err := im.Read(pfn)
		if err != nil {
			return 0, err
		}
		enc = EncodePageAppend(enc[:0], page)
		index = binary.BigEndian.AppendUint64(index, uint64(pfn))
		index = append(index, enc[:2]...)
		index = binary.BigEndian.AppendUint64(index, base+uint64(len(payloads)))
		payloads = append(payloads, enc[2:]...)
	}
	if _, err := f.Write(index); err != nil {
		return 0, err
	}
	if _, err := f.Write(payloads); err != nil {
		return 0, err
	}
	return len(pfns), f.Sync()
}

type diskIndexEntry struct {
	token  uint16
	offset uint64
}

// DiskImage is a read-only random-access VM memory image on disk — the
// memory server's view of the shared drive. It is safe for concurrent
// use (reads use ReadAt).
type DiskImage struct {
	f      *os.File
	alloc  units.Bytes
	index  map[PFN]diskIndexEntry
	npages int64
}

// OpenImageFile opens a disk image written by WriteImageFile.
func OpenImageFile(path string) (*DiskImage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, diskHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: read disk image header: %w", err)
	}
	if string(hdr[:4]) != diskMagic {
		f.Close()
		return nil, fmt.Errorf("pagestore: %s is not a disk image", path)
	}
	alloc := units.Bytes(binary.BigEndian.Uint64(hdr[4:]))
	count := int(binary.BigEndian.Uint32(hdr[12:]))

	raw := make([]byte, count*diskIndexEntrySize)
	if _, err := f.ReadAt(raw, int64(diskHeaderSize)); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagestore: read disk image index: %w", err)
	}
	d := &DiskImage{
		f:      f,
		alloc:  alloc,
		index:  make(map[PFN]diskIndexEntry, count),
		npages: alloc.Pages(),
	}
	for i := 0; i < count; i++ {
		e := raw[i*diskIndexEntrySize:]
		pfn := PFN(binary.BigEndian.Uint64(e))
		d.index[pfn] = diskIndexEntry{
			token:  binary.BigEndian.Uint16(e[8:]),
			offset: binary.BigEndian.Uint64(e[10:]),
		}
	}
	return d, nil
}

// Alloc returns the imaged VM's memory allocation.
func (d *DiskImage) Alloc() units.Bytes { return d.alloc }

// TouchedPages returns the number of indexed pages.
func (d *DiskImage) TouchedPages() int64 { return int64(len(d.index)) }

// ReadPage returns the decompressed contents of a page; untouched pages
// read as the shared zero page.
func (d *DiskImage) ReadPage(pfn PFN) ([]byte, error) {
	if int64(pfn) >= d.npages {
		return nil, fmt.Errorf("%w: pfn %d, allocation %d pages", ErrOutOfRange, pfn, d.npages)
	}
	e, ok := d.index[pfn]
	if !ok {
		return zeroPage, nil
	}
	n := PageBodyLen(e.token)
	if n == 0 {
		return zeroPage, nil
	}
	body := make([]byte, n)
	if _, err := d.f.ReadAt(body, int64(e.offset)); err != nil {
		return nil, fmt.Errorf("pagestore: read page %d: %w", pfn, err)
	}
	return DecodePage(e.token, body)
}

// Load reads the whole disk image back into an in-memory Image.
func (d *DiskImage) Load() (*Image, error) {
	im := NewImage(d.alloc)
	pfns := make([]PFN, 0, len(d.index))
	for pfn := range d.index {
		pfns = append(pfns, pfn)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
	for _, pfn := range pfns {
		page, err := d.ReadPage(pfn)
		if err != nil {
			return nil, err
		}
		if err := im.Write(pfn, page); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// Close releases the underlying file.
func (d *DiskImage) Close() error { return d.f.Close() }
