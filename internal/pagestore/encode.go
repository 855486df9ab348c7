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
	return encodePages(im, pfns, nil, 1)
}

// EncodeDirtySince encodes the pages dirtied since epoch and returns the
// snapshot together with the encoded page count.
func EncodeDirtySince(im *Image, epoch uint64) ([]byte, int, error) {
	return EncodeDirtySinceParallel(im, epoch, 1)
}

// EncodeAll encodes every touched page (a full upload).
func EncodeAll(im *Image) ([]byte, int, error) {
	return EncodeAllDict(im, nil, 1)
}

// walkSnapshot parses a snapshot's framing (either the v1 "OAPS" or the
// v2 dictionary-carrying "OAPD" format) and hands fn every page entry,
// still encoded (u64 pfn | u16 token | payload), with the snapshot's
// dictionary (nil for v1). It is the one definition of where an entry
// ends, under everything that decodes, stores, splits or partitions a
// snapshot.
func walkSnapshot(data []byte, fn func(dict []byte, pfn PFN, entry []byte) error) error {
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
		if err := fn(hdr.dict, pfn, data[off-10:off+n:off+n]); err != nil {
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
func decodeEntry(dst, dict []byte, pfn PFN, entry []byte) (page []byte, err error) {
	token, payload := binary.BigEndian.Uint16(entry[8:]), entry[10:]
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

// ApplySnapshot decodes a snapshot directly into an image: a compressed
// page is decompressed into the buffer the image then keeps. It is the
// guest side's apply (the hypervisor needs raw pages); a memory server
// keeps entries as they arrive, see Stage.
func ApplySnapshot(im *Image, data []byte) error {
	return walkSnapshot(data, func(dict []byte, pfn PFN, entry []byte) error {
		page, err := decodeEntry(nil, dict, pfn, entry)
		if err != nil {
			return err
		}
		if binary.BigEndian.Uint16(entry[8:])&tokenRawBit != 0 {
			// Zero (every bit set) or raw: nothing was decoded, Write copies.
			return im.Write(pfn, page)
		}
		if IsZeroPage(page) {
			page = nil
		}
		return im.set(pfn, page)
	})
}

// Staged is a snapshot an image has checked entry by entry and can
// adopt without failing.
type Staged struct {
	held  int // bytes of the snapshot the wire slots will point into
	slots []stagedSlot
}

type stagedSlot struct {
	pfn  PFN
	b    []byte // see leaf.slot
	wire bool
}

// Stage is the store side's check of an upload: it refuses whatever
// ApplySnapshot would, with the same error, and changes nothing in the
// image. A plain-lzf entry is validated by a walk of its token stream
// and a whole raw page by its length; both stay as they arrived, to be
// served by copy. Only what the page-serving wire cannot carry is
// decoded to a raw page here. Stage takes ownership of snap: adopted
// slots point into it.
func (im *Image) Stage(snap []byte) (*Staged, error) {
	st := &Staged{held: len(snap)}
	err := walkSnapshot(snap, func(dict []byte, pfn PFN, entry []byte) error {
		token, wire := binary.BigEndian.Uint16(entry[8:]), entry[8:]
		s := stagedSlot{pfn: pfn, b: wire, wire: true}
		switch {
		case token == tokenZero:
			s = stagedSlot{pfn: pfn}
		case token&tokenRawBit != 0 && len(wire) == 2+int(units.PageSize):
		case token&(tokenRawBit|tokenDictBit) == 0:
			if err := lzf.Validate(wire[2:], int(units.PageSize)); err != nil {
				return fmt.Errorf("pagestore: page %d: %w", pfn, err)
			}
		default: // dictionary-compressed or short raw
			page, err := decodeEntry(nil, dict, pfn, entry)
			if err != nil {
				return err
			}
			if len(page) > int(units.PageSize) {
				return fmt.Errorf("pagestore: page data %d bytes exceeds page size", len(page))
			}
			if s = (stagedSlot{pfn: pfn}); !IsZeroPage(page) {
				s.b = append(make([]byte, 0, units.PageSize), page...)[:units.PageSize]
			}
		}
		st.slots = append(st.slots, s)
		return im.checkRange(pfn)
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Adopt makes the staged snapshots' entries the image's pages under one
// acquisition of the lock — a reader sees none of them or all — and
// returns how many entries that was. Entries a later upload overwrites
// stay behind in the snapshots they arrived in; once those hold more
// than twice the bytes still referenced, Adopt copies the live entries
// into one fresh buffer and lets the rest go. Readers copy an entry out
// under the same lock, so they never see one move.
func (im *Image) Adopt(staged ...*Staged) (entries int64, compacted bool) {
	im.mu.Lock()
	defer im.mu.Unlock()
	for _, st := range staged {
		im.wireHeld += int64(st.held)
		entries += int64(len(st.slots))
		for _, s := range st.slots {
			im.setLocked(s.pfn, s.b, s.wire)
		}
	}
	if compacted = im.wireHeld > 2*im.wireLive; compacted {
		buf := make([]byte, 0, im.wireLive)
		for _, lf := range im.leaves {
			for i := 0; lf != nil && i < leafPages; i++ {
				if lf.wire[i] {
					at := len(buf)
					buf = append(buf, lf.slot[i]...)
					lf.slot[i] = buf[at:len(buf):len(buf)]
				}
			}
		}
		im.wireHeld = im.wireLive
	}
	return entries, compacted
}

// WireBytes returns the bytes the image's wire slots reference and the
// bytes of the buffers they point into.
func (im *Image) WireBytes() (live, held int64) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.wireLive, im.wireHeld
}

// EncodePageAppend appends one page's wire encoding (u16 token | payload,
// the format snapshots use) to out and returns the extended slice. The
// page is compressed straight into out behind its token; a result no
// smaller than the page is rolled back to a raw entry. A caller looping
// over pages (the snapshot encoders, the daemon's GetPage/GetPages
// handlers) reuses out and pays no allocation per page.
func EncodePageAppend(out, page []byte) []byte {
	if IsZeroPage(page) {
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
