package pagestore

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"oasis/internal/lzf"
	"oasis/internal/units"
)

// Encoded snapshot format, used for memory-server uploads and for pushing
// dirty state during reintegration:
//
//	header:  magic "OAPS" | u32 page count
//	per page: u64 pfn | u16 token | payload
//	  token 0xFFFF        zero page, no payload
//	  token 0x8000|len    raw (incompressible) page of len bytes
//	  token len           lzf-compressed payload of len bytes
const (
	snapMagic   = "OAPS"
	tokenZero   = 0xFFFF
	tokenRawBit = 0x8000
)

// pageEstimate is a process-wide EWMA of the observed encoded size per
// page entry (the 10-byte entry header included). It seeds the output
// buffer capacity in EncodePages: the old fixed 128-byte guess forced
// repeated grow-copies on large detaches of poorly compressing images
// (an incompressible page encodes to PageSize+10 bytes, 32x the guess).
// The estimate is a capacity hint only — the encoded bytes are identical
// whatever its value.
var pageEstimate atomic.Int64

// defaultPageEstimate is used before any snapshot has been observed:
// the old guess, which real guest images (zero-heavy, compressible)
// hover around.
const defaultPageEstimate = 128

// snapshotCapacity returns the output capacity to reserve for an n-page
// snapshot, from the observed compressibility of previous encodes, plus
// the worst-case room the compressor wants ahead of it for one page: a
// snapshot the estimate fits is then never regrown for its last entries.
func snapshotCapacity(n int) int {
	per := int(pageEstimate.Load())
	if per <= 0 {
		per = defaultPageEstimate
	}
	return 8 + n*per + lzf.CompressBound(int(units.PageSize))
}

// observeSnapshot folds one encode's realized bytes/page into the
// estimate (EWMA, 3/4 old + 1/4 new), clamped to the format's actual
// range: at least a bare entry header, at most a raw entry plus the
// compressor's worst-case bound.
func observeSnapshot(pages, encodedBytes int) {
	if pages <= 0 {
		return
	}
	per := (encodedBytes - 8) / pages
	if per < 10 {
		per = 10
	}
	if bound := 10 + lzf.CompressBound(int(units.PageSize)); per > bound {
		per = bound
	}
	old := pageEstimate.Load()
	if old <= 0 {
		old = defaultPageEstimate
	}
	// A racing store may drop a concurrent observation; the estimate is
	// advisory, so last-writer-wins is fine.
	pageEstimate.Store((3*old + int64(per)) / 4)
}

// EncodePages encodes the given pages of the image into a snapshot. Pages
// that are all zero are encoded with a zero token. The returned byte count
// is what travels over the SAS link or network.
func EncodePages(im *Image, pfns []PFN) ([]byte, error) {
	out := make([]byte, 0, snapshotCapacity(len(pfns)))
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(pfns)))
	out, err := appendPageEntries(out, im, pfns)
	if err != nil {
		return nil, err
	}
	observeSnapshot(len(pfns), len(out))
	return out, nil
}

// appendPageEntries appends the per-page entries (u64 pfn | u16 token |
// payload) for pfns to out, in order. It is the single definition of the
// snapshot body, shared by the serial encoder and each shard of the
// parallel one — which is what makes their outputs byte-identical by
// construction.
func appendPageEntries(out []byte, im *Image, pfns []PFN) ([]byte, error) {
	for _, pfn := range pfns {
		page, err := im.Read(pfn)
		if err != nil {
			return nil, err
		}
		out = binary.BigEndian.AppendUint64(out, uint64(pfn))
		out = EncodePageAppend(out, page)
	}
	return out, nil
}

// EncodeDirtySince encodes the pages dirtied since epoch and returns the
// snapshot together with the encoded page count.
func EncodeDirtySince(im *Image, epoch uint64) ([]byte, int, error) {
	pfns := im.DirtySince(epoch)
	data, err := EncodePages(im, pfns)
	return data, len(pfns), err
}

// EncodeAll encodes every touched page (a full upload).
func EncodeAll(im *Image) ([]byte, int, error) {
	pfns := im.AllTouched()
	data, err := EncodePages(im, pfns)
	return data, len(pfns), err
}

// walkSnapshot parses a snapshot's framing (either the v1 "OAPS" or the
// v2 dictionary-carrying "OAPD" format) and hands fn every page entry,
// still encoded, with the snapshot's dictionary (nil for v1).
func walkSnapshot(data []byte, fn func(dict []byte, pfn PFN, token uint16, payload []byte) error) error {
	hdr, err := parseSnapHeader(data)
	if err != nil {
		return err
	}
	off := hdr.bodyOff
	for i := uint32(0); i < hdr.count; i++ {
		if off+10 > len(data) {
			return fmt.Errorf("pagestore: truncated snapshot at page %d/%d", i, hdr.count)
		}
		pfn := PFN(binary.BigEndian.Uint64(data[off:]))
		token := binary.BigEndian.Uint16(data[off+8:])
		off += 10
		n := PageBodyLen(token)
		if token != tokenZero && token&tokenRawBit != 0 {
			n = int(token &^ tokenRawBit) // a snapshot's raw token carries its own length
		}
		if off+n > len(data) {
			return fmt.Errorf("pagestore: truncated page %d", pfn)
		}
		if err := fn(hdr.dict, pfn, token, data[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("pagestore: %d trailing bytes in snapshot", len(data)-off)
	}
	return nil
}

// decodeEntry returns the page of one snapshot entry: nil for a zero
// page, the payload itself for a raw one, and otherwise the payload
// decompressed into dst.
func decodeEntry(dst, dict []byte, pfn PFN, token uint16, payload []byte) (page []byte, err error) {
	switch {
	case token == tokenZero:
		return nil, nil
	case token&tokenRawBit != 0:
		return payload, nil
	case token&tokenDictBit == 0:
		page, err = lzf.Decompress(dst, payload, int(units.PageSize))
	case dict == nil:
		return nil, fmt.Errorf("pagestore: page %d: dict token in dictionary-less snapshot", pfn)
	default:
		page, err = lzf.DecompressDict(dst, dict, payload, int(units.PageSize))
	}
	if err != nil {
		return nil, fmt.Errorf("pagestore: page %d: %w", pfn, err)
	}
	return page, nil
}

// DecodeSnapshot parses a snapshot of either format, invoking apply for
// every page. Zero pages are delivered as a nil slice so the receiver
// can elide storage; any other page is only valid during the call.
func DecodeSnapshot(data []byte, apply func(pfn PFN, page []byte) error) error {
	buf := make([]byte, 0, units.PageSize)
	return walkSnapshot(data, func(dict []byte, pfn PFN, token uint16, payload []byte) error {
		page, err := decodeEntry(buf, dict, pfn, token, payload)
		if err != nil {
			return err
		}
		return apply(pfn, page)
	})
}

// ApplySnapshot decodes a snapshot directly into an image: a compressed
// page is decompressed into the buffer the image then keeps.
func ApplySnapshot(im *Image, data []byte) error {
	return walkSnapshot(data, func(dict []byte, pfn PFN, token uint16, payload []byte) error {
		page, err := decodeEntry(nil, dict, pfn, token, payload)
		if err != nil {
			return err
		}
		if token&tokenRawBit != 0 {
			// Zero (every bit set) or raw: nothing was decoded, Write copies.
			return im.Write(pfn, page)
		}
		if isZero(page) {
			page = nil
		}
		return im.set(pfn, page)
	})
}

// EncodePageAppend appends one page's wire encoding (u16 token | payload,
// the format snapshots use) to out and returns the extended slice. The
// page is compressed straight into out behind its token; a result no
// smaller than the page is rolled back to a raw entry. A caller looping
// over pages (the snapshot encoders, the daemon's GetPage/GetPages
// handlers) reuses out and pays no allocation per page.
func EncodePageAppend(out, page []byte) []byte {
	if isZero(page) {
		return binary.BigEndian.AppendUint16(out, tokenZero)
	}
	at := len(out)
	out = lzf.Compress(append(out, 0, 0), page)
	token := len(out) - at - 2
	if token >= int(units.PageSize) {
		// Incompressible: store raw.
		out = append(out[:at+2], page...)
		token = tokenRawBit | int(units.PageSize&0x7FFF)
	}
	binary.BigEndian.PutUint16(out[at:], uint16(token))
	return out
}

// PageBodyLen returns the payload size implied by a page token, so wire
// formats can frame page entries without their own length fields.
func PageBodyLen(token uint16) int {
	switch {
	case token == tokenZero:
		return 0
	case token&tokenRawBit != 0:
		return int(units.PageSize)
	case token&tokenDictBit != 0:
		return int(token &^ tokenDictBit)
	default:
		return int(token)
	}
}

// DecodePage reverses EncodePageAppend. Zero-token pages return a shared
// all-zero page; callers must not modify the result.
func DecodePage(token uint16, payload []byte) ([]byte, error) {
	switch {
	case token == tokenZero:
		return zeroPage, nil
	case token&tokenRawBit != 0:
		if len(payload) != int(units.PageSize) {
			return nil, fmt.Errorf("pagestore: raw page payload %d bytes", len(payload))
		}
		return payload, nil
	case token&tokenDictBit != 0:
		// Dict tokens only appear inside v2 snapshots, which carry their
		// dictionary; the page-serving wire never produces them.
		return nil, fmt.Errorf("pagestore: dict token outside a dictionary snapshot")
	default:
		out, err := lzf.Decompress(nil, payload, int(units.PageSize))
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}
