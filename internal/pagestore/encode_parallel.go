package pagestore

import (
	"encoding/binary"
	"sync"

	"oasis/internal/units"
)

// minShardPages is the smallest shard worth a goroutine: below this the
// per-worker scheduling and stitch copy cost more than the compression
// they parallelize.
const minShardPages = 16

// EncodePagesParallel encodes the given pages across up to `workers`
// goroutines, producing output byte-identical to EncodePages. Values of
// workers <= 1 (and small PFN lists) take the serial path.
func EncodePagesParallel(im *Image, pfns []PFN, workers int) ([]byte, error) {
	return encodePages(im, pfns, workers)
}

// encodePages is the one snapshot encoder (the detach-side counterpart
// of the pipelined prefetch path): the header, then the entries of pfns,
// encoded over contiguous shards by up to `workers` goroutines and
// stitched in shard order. Because the body is a pure in-order
// concatenation of independent per-page encodings (Image.AppendEntries),
// stitching reproduces the serial output byte for byte — a property the
// tests hold across worker counts and page mixes.
func encodePages(im *Image, pfns []PFN, workers int) ([]byte, error) {
	workers = max(1, min(workers, len(pfns)/minShardPages))
	per := (len(pfns) + workers - 1) / workers
	segs := make([][]byte, workers)
	errs := make([]error, workers)
	// The first shard is encoded behind the header, in the buffer the
	// others are stitched onto: a serial encode copies nothing.
	segs[0] = binary.BigEndian.AppendUint32(append(make([]byte, 0, snapshotCapacity(len(pfns))), snapMagic...), uint32(len(pfns)))
	var wg sync.WaitGroup
	for w := range segs {
		lo := min(w*per, len(pfns))
		hi := min(lo+per, len(pfns))
		if w > 0 {
			segs[w] = make([]byte, 0, snapshotCapacity(hi-lo))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs[w], errs[w] = im.AppendEntries(segs[w], pfns[lo:hi])
		}()
	}
	wg.Wait()
	out := segs[0]
	for w, seg := range segs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		if w > 0 {
			out = append(out, seg...)
		}
	}
	observeSnapshot(len(pfns), len(out))
	return out, nil
}

// EncodeDirtySinceParallel is EncodeDirtySince over the parallel encoder.
func EncodeDirtySinceParallel(im *Image, epoch uint64, workers int) ([]byte, int, error) {
	pfns := im.DirtySince(epoch)
	data, err := encodePages(im, pfns, workers)
	return data, len(pfns), err
}

// EncodeAllParallel is EncodeAll over the parallel encoder.
func EncodeAllParallel(im *Image, workers int) ([]byte, int, error) {
	pfns := im.AllTouched()
	data, err := encodePages(im, pfns, workers)
	return data, len(pfns), err
}

// ChunkRef is one self-contained snapshot chunk described by reference
// into the original snapshot: Pre is the chunk's own (owned) header and
// Body a subslice of the source snapshot. The two segments concatenated
// form a valid snapshot. Shipping refs instead of materialized chunks
// lets the streaming upload path write a chunk with vectored I/O and
// zero copies of the page bytes.
type ChunkRef struct {
	Pre  []byte // owned header: magic | count
	Body []byte // page entries
}

// Len returns the chunk's total encoded size.
func (c ChunkRef) Len() int { return len(c.Pre) + len(c.Body) }

// AppendTo appends the materialized chunk to dst.
func (c ChunkRef) AppendTo(dst []byte) []byte {
	return append(append(dst, c.Pre...), c.Body...)
}

// SplitSnapshotRefs splits an encoded snapshot into self-contained chunk
// references of at most maxChunk bytes each (raised to the single-entry
// minimum if smaller). Entries are never split, page bytes are never
// copied — only the small per-chunk headers are allocated. An empty
// snapshot yields one empty chunk.
func SplitSnapshotRefs(data []byte, maxChunk int) ([]ChunkRef, error) {
	if floor := 8 + 10 + int(units.PageSize); maxChunk < floor {
		maxChunk = floor
	}
	type span struct {
		lo, hi int
		count  uint32
	}
	var spans []span
	cur := span{lo: 8, hi: 8}
	if err := walkSnapshot(data, func(_ PFN, entry []byte) error {
		if cur.count > 0 && 8+(cur.hi-cur.lo)+len(entry) > maxChunk {
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
		pre := binary.BigEndian.AppendUint32(append(make([]byte, 0, 8), snapMagic...), sp.count)
		refs[i] = ChunkRef{Pre: pre, Body: data[sp.lo:sp.hi:sp.hi]}
	}
	return refs, nil
}

// SplitSnapshot is SplitSnapshotRefs with each chunk materialized.
// Applying the chunks in any order — page entries are independent —
// reproduces applying the original, which is what lets the streaming
// upload path ship them concurrently and the server check them in
// parallel; that path uses the refs and copies no page bytes.
func SplitSnapshot(data []byte, maxChunk int) ([][]byte, error) {
	refs, err := SplitSnapshotRefs(data, maxChunk)
	if err != nil {
		return nil, err
	}
	chunks := make([][]byte, len(refs))
	for i, r := range refs {
		chunks[i] = r.AppendTo(make([]byte, 0, r.Len()))
	}
	return chunks, nil
}
