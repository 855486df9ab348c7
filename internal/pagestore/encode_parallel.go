package pagestore

import (
	"sync"

	"oasis/internal/lzf"
)

// minShardPages is the smallest shard worth a goroutine: below this the
// per-worker scheduling and stitch copy cost more than the compression
// they parallelize.
const minShardPages = 16

// EncodePagesParallel encodes the given pages across up to `workers`
// goroutines, producing output byte-identical to EncodePages. Values of
// workers <= 1 (and small PFN lists) take the serial path.
func EncodePagesParallel(im *Image, pfns []PFN, workers int) ([]byte, error) {
	return encodePages(im, pfns, nil, workers)
}

// encodePages is the one snapshot encoder (the detach-side counterpart
// of the pipelined prefetch path): a header in dict's format (v1 when
// dict is empty), then the entries of pfns, encoded over contiguous
// shards by up to `workers` goroutines and stitched in shard order.
// Because the body is a pure in-order concatenation of independent
// per-page encodings (see appendPageEntriesDict), stitching reproduces
// the serial output byte for byte — a property the tests hold across
// worker counts and page mixes.
func encodePages(im *Image, pfns []PFN, dict []byte, workers int) ([]byte, error) {
	var hdr snapHeader
	if len(dict) > 0 {
		hdr.dict = dict[max(0, len(dict)-lzf.MaxDictLen):]
	}
	workers = max(1, min(workers, len(pfns)/minShardPages))
	per := (len(pfns) + workers - 1) / workers
	segs := make([][]byte, workers)
	errs := make([]error, workers)
	// The first shard is encoded behind the header, in the buffer the
	// others are stitched onto: a serial encode copies nothing.
	segs[0] = appendSnapHeader(make([]byte, 0, hdr.headerLen()+snapshotCapacity(len(pfns))), hdr, uint32(len(pfns)))
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
			segs[w], errs[w] = appendPageEntriesDict(segs[w], im, pfns[lo:hi], hdr.dict)
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
	observeSnapshot(len(pfns), len(out)-hdr.headerLen()+8)
	return out, nil
}

// EncodeDirtySinceParallel is EncodeDirtySince over the parallel encoder.
func EncodeDirtySinceParallel(im *Image, epoch uint64, workers int) ([]byte, int, error) {
	pfns := im.DirtySince(epoch)
	data, err := encodePages(im, pfns, nil, workers)
	return data, len(pfns), err
}

// EncodeAllParallel is EncodeAll over the parallel encoder.
func EncodeAllParallel(im *Image, workers int) ([]byte, int, error) {
	return EncodeAllDict(im, nil, workers)
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
