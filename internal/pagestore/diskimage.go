package pagestore

import (
	"encoding/binary"
	"fmt"
	"os"

	"oasis/internal/units"
)

// On-disk image format. The Oasis prototype's memory server serves pages
// from a shared SAS drive the host wrote its VM images to before
// suspending (§4.3); this is that durable form: the VM's allocation, then
// a v1 snapshot of every touched page, each entry as the image holds it —
// writing compresses nothing the server was sent compressed, loading
// adopts the file's bytes.
//
//	"OAIF" | u64 alloc bytes | snapshot ("OAPS" | u32 count | entries)
//
// Files written up to PR 23 (under the dictionary snapshot's magic) keep
// loading:
//
//	"OAPD" | u64 alloc bytes | u32 count | count x (u64 pfn | u16 token |
//	u64 payload offset) | payloads, sizes implied by tokens
const (
	imageFileMagic   = "OAIF"
	legacyImageMagic = "OAPD"
	legacyHeaderSize = 4 + 8 + 4
)

// WriteImageFile writes every touched page of im to path and syncs the
// file, returning the page count.
func WriteImageFile(path string, im *Image) (int, error) {
	pfns := im.AllTouched()
	out := make([]byte, 0, 12+imageEstimate.capacity(len(pfns)))
	out = append(out, imageFileMagic...)
	out = binary.BigEndian.AppendUint64(out, uint64(im.Alloc()))
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(pfns)))
	out, err := im.AppendEntries(out, pfns)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err = f.Write(out); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return len(pfns), err
}

// LoadImageFile reads an image file back: every entry is checked as an
// upload's would be (Stage), then adopted where the file's bytes lie.
func LoadImageFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < legacyHeaderSize { // shorter than either layout's header
		return nil, fmt.Errorf("pagestore: %s is not a disk image", path)
	}
	snap := data[12:]
	switch string(data[:4]) {
	case imageFileMagic:
	case legacyImageMagic:
		if snap, err = legacySnapshot(data); err != nil {
			return nil, fmt.Errorf("pagestore: %s: %w", path, err)
		}
	default:
		return nil, fmt.Errorf("pagestore: %s is not a disk image", path)
	}
	im := NewImage(units.Bytes(binary.BigEndian.Uint64(data[4:])))
	st, err := im.Stage(snap)
	if err != nil {
		return nil, fmt.Errorf("pagestore: %s: %w", path, err)
	}
	im.Adopt(st)
	return im, nil
}

// legacySnapshot re-frames an index-and-payloads image file as the v1
// snapshot of the same entries.
func legacySnapshot(data []byte) ([]byte, error) {
	const indexEntrySize = 8 + 2 + 8
	count := int(binary.BigEndian.Uint32(data[12:]))
	if count > (len(data)-legacyHeaderSize)/indexEntrySize {
		return nil, fmt.Errorf("disk image index of %d pages exceeds the file", count)
	}
	out := append(make([]byte, 0, len(data)), snapMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(count))
	for i := 0; i < count; i++ {
		e := data[legacyHeaderSize+i*indexEntrySize:]
		n, err := PageBodyLen(binary.BigEndian.Uint16(e[8:]))
		if err != nil {
			return nil, fmt.Errorf("page %d: %w", binary.BigEndian.Uint64(e), err)
		}
		off := binary.BigEndian.Uint64(e[10:])
		if off > uint64(len(data)) || uint64(n) > uint64(len(data))-off {
			return nil, fmt.Errorf("page %d payload lies outside the file", binary.BigEndian.Uint64(e))
		}
		out = append(append(out, e[:10]...), data[off:off+uint64(n)]...)
	}
	return out, nil
}
