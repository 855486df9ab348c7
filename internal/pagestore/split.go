package pagestore

import (
	"encoding/binary"

	"oasis/internal/units"
)

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
