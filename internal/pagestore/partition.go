package pagestore

import (
	"encoding/binary"
	"fmt"
)

// PartitionSnapshot splits an encoded snapshot into n per-owner
// sub-snapshots: every page entry is copied, raw bytes untouched, into
// the output of each owner index that owners(pfn) returns. It is the
// write-side primitive of the sharded memory-server fabric — the owner
// function is the consistent-hash placement, and returning more than one
// index per page is what implements R-way replica writes.
//
// Entry order within each output matches the input, and the per-page
// encodings are never re-compressed, so a backend that receives its
// partition holds exactly the bytes the unsharded upload would have
// given it. Concatenating disjoint partitions (in any order) and
// applying them reproduces applying the original snapshot. Every one of
// the n outputs is a valid snapshot — possibly empty, so that each
// backend of a fabric always receives an image and later differential
// uploads never hit an unknown VM.
//
// Owner indices outside [0, n) are rejected, as is a malformed snapshot.
//
// Both snapshot formats are accepted. A v2 (dictionary) snapshot's
// dictionary is replicated into every partition — including empty ones —
// so each per-owner sub-snapshot remains self-contained and an empty
// partition is still a valid image for a registered-but-empty owner.
func PartitionSnapshot(data []byte, n int, owners func(PFN) []int) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pagestore: partition into %d parts", n)
	}
	hdr, err := parseSnapHeader(data)
	if err != nil {
		return nil, err
	}
	parts := make([][]byte, n)
	counts := make([]uint32, n)
	for i := range parts {
		p := make([]byte, 0, hdr.headerLen()+(len(data)-hdr.bodyOff)/n)
		parts[i] = appendSnapHeader(p, hdr, 0) // count patched below
	}
	if err := walkSnapshot(data, func(_ []byte, pfn PFN, entry []byte) error {
		for _, o := range owners(pfn) {
			if o < 0 || o >= n {
				return fmt.Errorf("pagestore: page %d assigned to owner %d of %d", pfn, o, n)
			}
			parts[o] = append(parts[o], entry...)
			counts[o]++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range parts {
		binary.BigEndian.PutUint32(parts[i][4:8], counts[i])
	}
	return parts, nil
}
