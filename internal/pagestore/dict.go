package pagestore

import (
	"encoding/binary"
	"fmt"

	"oasis/internal/lzf"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// Dictionary snapshots ("OAPD", format v2). A v2 snapshot embeds a
// per-VM dictionary — typically one representative page chosen by
// BuildDict — and page entries whose token carries tokenDictBit when
// the payload was compressed against that dictionary instead of alone.
// Pages keep their plain-LZF encoding whenever it is no larger, so a v2
// snapshot never loses to v1 by more than the embedded dictionary
// bytes, and wins whenever the VM's pages share structure (heap
// headers, page-table-like fill patterns, near-duplicate buffers).
//
//	header:  magic "OAPD" | u32 page count | u32 dictLen | dict bytes
//	per page: u64 pfn | u16 token | payload
//	  token 0xFFFF          zero page, no payload
//	  token 0x8000|len      raw (incompressible) page of len bytes
//	  token 0x4000|len      dictionary-compressed payload of len bytes
//	  token len             lzf-compressed payload of len bytes
//
// Every consumer of snapshot bytes (ApplySnapshot, Stage, SplitSnapshot,
// PartitionSnapshot) accepts both formats; chunking and partitioning
// replicate the dictionary into each output so chunks and per-owner
// partitions stay self-contained — which is what keeps the shard
// fabric's registered-but-empty-owner rule intact: an empty partition
// is still a valid (dict-carrying) snapshot every backend can apply.
const (
	snapMagicDict = "OAPD"
	tokenDictBit  = 0x4000
)

var dictHits = telemetry.Default.Counter("oasis_lzf_dict_hits_total",
	"Page encodings where dictionary compression beat plain LZF")

// snapHeader describes a parsed snapshot header of either format.
type snapHeader struct {
	count   uint32
	dict    []byte // nil for v1; subslice of the input for v2
	bodyOff int    // offset of the first page entry
}

// headerLen returns the byte length of a header for this snapshot's
// format (8 for v1, 12+dictLen for v2).
func (h snapHeader) headerLen() int {
	if h.dict == nil {
		return 8
	}
	return 12 + len(h.dict)
}

// parseSnapHeader validates and splits a snapshot header, accepting both
// the v1 ("OAPS") and v2 ("OAPD") formats.
func parseSnapHeader(data []byte) (snapHeader, error) {
	if len(data) < 8 {
		return snapHeader{}, fmt.Errorf("pagestore: bad snapshot magic")
	}
	switch string(data[:4]) {
	case snapMagic:
		return snapHeader{count: binary.BigEndian.Uint32(data[4:8]), bodyOff: 8}, nil
	case snapMagicDict:
		if len(data) < 12 {
			return snapHeader{}, fmt.Errorf("pagestore: truncated dict snapshot header")
		}
		dictLen := int(binary.BigEndian.Uint32(data[8:12]))
		if dictLen < 0 || 12+dictLen > len(data) {
			return snapHeader{}, fmt.Errorf("pagestore: dict length %d exceeds snapshot", dictLen)
		}
		return snapHeader{
			count:   binary.BigEndian.Uint32(data[4:8]),
			dict:    data[12 : 12+dictLen : 12+dictLen],
			bodyOff: 12 + dictLen,
		}, nil
	default:
		return snapHeader{}, fmt.Errorf("pagestore: bad snapshot magic")
	}
}

// appendSnapHeader appends a header matching h's format (with count
// patched to the given value) to out.
func appendSnapHeader(out []byte, h snapHeader, count uint32) []byte {
	if h.dict == nil {
		out = append(out, snapMagic...)
		return binary.BigEndian.AppendUint32(out, count)
	}
	out = append(out, snapMagicDict...)
	out = binary.BigEndian.AppendUint32(out, count)
	out = binary.BigEndian.AppendUint32(out, uint32(len(h.dict)))
	return append(out, h.dict...)
}

// appendPageEntriesDict is Image.AppendEntries with a dictionary in
// play: each non-zero page is also compressed against dict, and that
// encoding replaces the plain (or raw) one when it is smaller (tagged
// with tokenDictBit). With an empty dict it produces exactly
// AppendEntries' bytes.
func appendPageEntriesDict(out []byte, im *Image, pfns []PFN, dict []byte) ([]byte, error) {
	if len(dict) == 0 {
		return im.AppendEntries(out, pfns)
	}
	var dcomp []byte
	for _, pfn := range pfns {
		page, err := im.Read(pfn)
		if err != nil {
			return nil, err
		}
		out = binary.BigEndian.AppendUint64(out, uint64(pfn))
		at := len(out)
		out = EncodePageAppend(out, page)
		if len(out) == at+2 {
			continue // zero page
		}
		dcomp = lzf.CompressDict(dcomp[:0], dict, page)
		if len(dcomp) < len(out)-at-2 {
			binary.BigEndian.PutUint16(out[at:], tokenDictBit|uint16(len(dcomp)))
			out = append(out[:at+2], dcomp...)
			dictHits.Inc()
		}
	}
	return out, nil
}

// EncodeAllDict encodes every touched page as a v2 dictionary snapshot
// over up to `workers` goroutines, byte-identical across worker counts.
// An empty dict yields the v1 snapshot EncodeAllParallel does.
func EncodeAllDict(im *Image, dict []byte, workers int) ([]byte, int, error) {
	pfns := im.AllTouched()
	data, err := encodePages(im, pfns, dict, workers)
	return data, len(pfns), err
}

// buildDictSamples is how many pages BuildDict samples: candidates are
// judged by how well each compresses the rest of the sample.
const buildDictSamples = 16

// BuildDict picks a per-VM compression dictionary: the sampled page
// that, used as an LZF dictionary, shrinks the other sampled pages the
// most. It returns nil when no candidate beats plain compression —
// callers then encode v1 and lose nothing. The returned slice is a
// copy; it stays valid after further image writes.
func BuildDict(im *Image) []byte {
	pfns := im.AllTouched()
	if len(pfns) < 2 {
		return nil
	}
	step := len(pfns) / buildDictSamples
	if step < 1 {
		step = 1
	}
	var samples [][]byte
	for i := 0; i < len(pfns) && len(samples) < buildDictSamples; i += step {
		page, err := im.Read(pfns[i])
		if err != nil || IsZeroPage(page) {
			continue
		}
		samples = append(samples, page)
	}
	if len(samples) < 2 {
		return nil
	}
	var scratch []byte
	baseline := 0
	for _, s := range samples {
		scratch = lzf.Compress(scratch[:0], s)
		baseline += len(scratch)
	}
	best, bestCost := -1, baseline
	for c, cand := range samples {
		cost := 0
		for s, page := range samples {
			if s == c {
				scratch = lzf.Compress(scratch[:0], page)
			} else {
				scratch = lzf.CompressDict(scratch[:0], cand, page)
			}
			cost += len(scratch)
			if cost >= bestCost {
				break
			}
		}
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	if best < 0 {
		return nil
	}
	dict := make([]byte, len(samples[best]))
	copy(dict, samples[best])
	return dict
}

// ChunkRef is one self-contained snapshot chunk described by reference
// into the original snapshot: Pre is the chunk's own (owned) header,
// Dict and Body are subslices of the source snapshot. The three
// segments concatenated form a valid snapshot. Shipping refs instead of
// materialized chunks lets the streaming upload path write a chunk with
// vectored I/O and zero copies of the page bytes.
type ChunkRef struct {
	Pre  []byte // owned header: magic | count | [dictLen]
	Dict []byte // dictionary bytes (nil for v1 snapshots)
	Body []byte // page entries
}

// Len returns the chunk's total encoded size.
func (c ChunkRef) Len() int { return len(c.Pre) + len(c.Dict) + len(c.Body) }

// AppendTo appends the materialized chunk to dst.
func (c ChunkRef) AppendTo(dst []byte) []byte {
	dst = append(dst, c.Pre...)
	dst = append(dst, c.Dict...)
	return append(dst, c.Body...)
}

// SplitSnapshotRefs splits an encoded snapshot (either format) into
// self-contained chunk references of at most maxChunk bytes each
// (raised to the single-entry minimum if smaller). Entries are never
// split, page bytes are never copied — only the small per-chunk headers
// are allocated. For v2 snapshots every
// chunk repeats the dictionary, so each remains independently
// decodable. An empty snapshot yields one empty chunk.
func SplitSnapshotRefs(data []byte, maxChunk int) ([]ChunkRef, error) {
	hdr, err := parseSnapHeader(data)
	if err != nil {
		return nil, err
	}
	hl := hdr.headerLen()
	if floor := hl + 10 + int(units.PageSize); maxChunk < floor {
		maxChunk = floor
	}
	type span struct {
		lo, hi int
		count  uint32
	}
	var spans []span
	cur := span{lo: hdr.bodyOff, hi: hdr.bodyOff}
	if err := walkSnapshot(data, func(_ []byte, _ PFN, entry []byte) error {
		if cur.count > 0 && hl+(cur.hi-cur.lo)+len(entry) > maxChunk {
			spans = append(spans, cur)
			cur = span{lo: cur.hi, hi: cur.hi}
		}
		cur.hi += len(entry)
		cur.count++
		return nil
	}); err != nil {
		return nil, err
	}
	spans = append(spans, cur) // the final (possibly empty) chunk
	refs := make([]ChunkRef, len(spans))
	for i, sp := range spans {
		pre := binary.BigEndian.AppendUint32(append(make([]byte, 0, 12), data[:4]...), sp.count)
		if hdr.dict != nil {
			pre = binary.BigEndian.AppendUint32(pre, uint32(len(hdr.dict)))
		}
		refs[i] = ChunkRef{Pre: pre, Dict: hdr.dict, Body: data[sp.lo:sp.hi:sp.hi]}
	}
	return refs, nil
}
