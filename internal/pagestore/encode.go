package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
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
//
// Every page is compressed alone. Earlier versions could also compress
// a page against a per-VM dictionary, carried in an "OAPD" snapshot
// header and marked by a token of 0x4000|len; both are refused by name
// (walkSnapshot, PageBodyLen, DecodePage), never read as something
// else.
const (
	snapMagic     = "OAPS"
	tokenZero     = 0xFFFF
	tokenRawBit   = 0x8000
	tokenDictMark = 0x4000
)

// errDictToken is the refusal of a dictionary token, before the 16 KiB+
// plain length it would otherwise imply is trusted.
func errDictToken(token uint16) error {
	return fmt.Errorf("dictionary-compressed entry (token %#x) is not supported", token)
}

// sizeEstimate is a running estimate of the encoded bytes per page entry
// (the 10-byte entry header included) of one kind of snapshot. It sizes
// the encoder's output buffer, which is reserved once: an estimate that
// falls short makes append regrow the buffer 1.25x at a time, copying
// the snapshot so far each time. Whole images and page lists (diffs,
// dirty snapshots, pre-copy deltas) keep apart, since a run of small
// well-compressed diffs says nothing about the next image. The estimate
// is a capacity hint only — the encoded bytes are identical whatever its
// value.
type sizeEstimate struct{ per atomic.Int64 }

var (
	imageEstimate sizeEstimate // EncodeAll, WriteImageFile
	listEstimate  sizeEstimate // EncodePages, EncodeDirtySince
)

// defaultPageEstimate is used before a kind has been observed: real
// guest images (zero-heavy, compressible) hover around it.
const defaultPageEstimate = 128

// capacity returns the output capacity to reserve for n entries: the
// estimate with 1/8 headroom, plus the worst-case room the compressor
// wants ahead of it for one page, so a snapshot the estimate fits is
// never regrown for its last entries.
func (e *sizeEstimate) capacity(n int) int {
	per := int(e.per.Load())
	if per <= 0 {
		per = defaultPageEstimate
	}
	return 8 + n*per + n*per/8 + lzf.CompressBound(int(units.PageSize))
}

// observe folds one encode's bytes per entry, rounded up and clamped to
// the format's range, into the estimate: a larger value is taken at
// once, so the next snapshot like this one is not regrown, and a smaller
// one pulls the estimate down by a quarter of the gap, rounded up.
func (e *sizeEstimate) observe(pages, encodedBytes int) {
	if pages <= 0 {
		return
	}
	per := int64(encodedBytes-8+pages-1) / int64(pages)
	per = max(10, min(per, int64(10+lzf.CompressBound(int(units.PageSize)))))
	// A racing store may drop a concurrent observation; the estimate is
	// advisory, so last-writer-wins is fine.
	if old := e.per.Load(); old > per {
		per = (3*old + per + 3) / 4
	}
	e.per.Store(per)
}

// minShardPages is the smallest shard worth a goroutine: below this the
// per-worker scheduling and stitch copy cost more than the compression
// they parallelize.
const minShardPages = 16

// encodePages is the one snapshot encoder: the header, then the entries
// of pfns, encoded over contiguous shards by one goroutine per available
// core (fewer for short lists) and stitched in shard order. The body is
// an in-order concatenation of independent per-page encodings, so the
// output is byte-identical whatever the shard count. Every shard reads
// under the one read lock taken here: a snapshot is one point in time,
// as a serial encode's is. Shard 0 is encoded behind the header into a
// buffer sized for the whole snapshot, the others into buffers sized for
// their own part, and est learns from the result.
func encodePages(im *Image, pfns []PFN, est *sizeEstimate) ([]byte, error) {
	shards := max(1, min(runtime.GOMAXPROCS(0), len(pfns)/minShardPages))
	per := (len(pfns) + shards - 1) / shards
	parts := make([]struct {
		b   []byte
		err error
	}, shards)
	parts[0].b = binary.BigEndian.AppendUint32(append(make([]byte, 0, est.capacity(len(pfns))), snapMagic...), uint32(len(pfns)))
	var wg sync.WaitGroup
	im.mu.RLock()
	for w := shards - 1; w >= 0; w-- {
		lo := min(w*per, len(pfns))
		hi := min(lo+per, len(pfns))
		if w == 0 { // on this goroutine, after the others have started
			parts[0].b, parts[0].err = im.appendEntriesLocked(parts[0].b, pfns[:hi])
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w].b, parts[w].err = im.appendEntriesLocked(make([]byte, 0, est.capacity(hi-lo)), pfns[lo:hi])
		}()
	}
	wg.Wait()
	im.mu.RUnlock()
	out := parts[0].b
	for w, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		if w > 0 {
			out = append(out, p.b...)
		}
	}
	est.observe(len(pfns), len(out))
	return out, nil
}

// EncodePages encodes the given pages of the image into a snapshot. Pages
// that are all zero are encoded with a zero token. The returned byte count
// is what travels over the SAS link or network.
func EncodePages(im *Image, pfns []PFN) ([]byte, error) {
	return encodePages(im, pfns, &listEstimate)
}

// EncodeDirtySince encodes the pages dirtied since epoch and returns the
// snapshot together with the encoded page count.
func EncodeDirtySince(im *Image, epoch uint64) ([]byte, int, error) {
	pfns := im.DirtySince(epoch)
	data, err := encodePages(im, pfns, &listEstimate)
	return data, len(pfns), err
}

// EncodeAll encodes every touched page (a full upload).
func EncodeAll(im *Image) ([]byte, int, error) {
	pfns := im.AllTouched()
	data, err := encodePages(im, pfns, &imageEstimate)
	return data, len(pfns), err
}

// walkSnapshot parses a snapshot's framing and hands fn every page
// entry, still encoded (u64 pfn | u16 token | payload). It is the one
// definition of where an entry ends, under everything that decodes,
// stores, splits or partitions a snapshot.
func walkSnapshot(data []byte, fn func(pfn PFN, entry []byte) error) error {
	switch {
	case len(data) >= 8 && string(data[:4]) == snapMagic:
	case bytes.HasPrefix(data, []byte("OAPD")):
		return errors.New(`pagestore: dictionary snapshot ("OAPD") is not supported`)
	default:
		return errors.New("pagestore: bad snapshot magic")
	}
	count := binary.BigEndian.Uint32(data[4:8])
	off := 8
	for i := uint32(0); i < count; i++ {
		if off+10 > len(data) {
			return fmt.Errorf("pagestore: truncated snapshot at page %d/%d", i, count)
		}
		pfn := PFN(binary.BigEndian.Uint64(data[off:]))
		token := binary.BigEndian.Uint16(data[off+8:])
		off += 10
		n, err := PageBodyLen(token)
		if err != nil {
			return fmt.Errorf("pagestore: page %d: %w", pfn, err)
		}
		if token != tokenZero && token&tokenRawBit != 0 {
			n = int(token &^ tokenRawBit) // a snapshot's raw token carries its own length
		}
		if off+n > len(data) {
			return fmt.Errorf("pagestore: truncated page %d", pfn)
		}
		if err := fn(pfn, data[off-10:off+n:off+n]); err != nil {
			return err
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("pagestore: %d trailing bytes in snapshot", len(data)-off)
	}
	return nil
}

// ApplySnapshot decodes a snapshot directly into an image: a compressed
// page is decompressed into the buffer the image then keeps. It is the
// guest side's apply (the hypervisor needs raw pages); a memory server
// keeps entries as they arrive, see Stage.
func ApplySnapshot(im *Image, data []byte) error {
	return walkSnapshot(data, func(pfn PFN, entry []byte) error {
		token, payload := binary.BigEndian.Uint16(entry[8:]), entry[10:]
		if token&tokenRawBit != 0 {
			// Zero (every bit set, no payload) or raw: nothing to decode,
			// Write copies.
			return im.Write(pfn, payload)
		}
		page, err := lzf.Decompress(nil, payload, int(units.PageSize))
		if err != nil {
			return fmt.Errorf("pagestore: page %d: %w", pfn, err)
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
// served by copy. The one entry the page-serving wire cannot carry, a
// raw entry shorter than a page, is padded to a raw page here: Stage
// decodes nothing else. Stage takes ownership of snap: adopted slots
// point into it.
func (im *Image) Stage(snap []byte) (*Staged, error) {
	st := &Staged{held: len(snap)}
	if len(snap) >= 8 {
		// Size the slots from the header's count, but never past the
		// entries the bytes can hold (10 bytes each at the least), so a
		// hostile count cannot force a large allocation.
		count := int(binary.BigEndian.Uint32(snap[4:8]))
		st.slots = make([]stagedSlot, 0, min(count, (len(snap)-8)/10))
	}
	err := walkSnapshot(snap, func(pfn PFN, entry []byte) error {
		token, wire := binary.BigEndian.Uint16(entry[8:]), entry[8:]
		s := stagedSlot{pfn: pfn, b: wire, wire: true}
		switch {
		case token == tokenZero:
			s = stagedSlot{pfn: pfn}
		case token&tokenRawBit == 0:
			if err := lzf.Validate(wire[2:], int(units.PageSize)); err != nil {
				return fmt.Errorf("pagestore: page %d: %w", pfn, err)
			}
		case len(wire) == 2+int(units.PageSize):
		default: // a raw entry of other than a page
			page := wire[2:]
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
// formats can frame page entries without their own length fields. A
// dictionary token is refused.
func PageBodyLen(token uint16) (int, error) {
	switch {
	case token == tokenZero:
		return 0, nil
	case token&tokenRawBit != 0:
		return int(units.PageSize), nil
	case token&tokenDictMark != 0:
		return 0, errDictToken(token)
	default:
		return int(token), nil
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
	case token&tokenDictMark != 0:
		return nil, fmt.Errorf("pagestore: %w", errDictToken(token))
	default:
		out, err := lzf.Decompress(nil, payload, int(units.PageSize))
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}
