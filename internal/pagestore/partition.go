package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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
// It cuts once and copies by run. A first pass calls owners once per
// page, in order, and records runs of consecutive entries whose owner
// sets are equal, checking each run's set once and adding up every
// part's exact size. A second pass allocates each part once, at that
// size, and copies each run into each of its owners with one copy.
// owners may return a fresh slice per call or reuse one: its sets are
// compared by value and copied.
//
// Owner indices outside [0, n) are rejected, as is a malformed snapshot.
func PartitionSnapshot(data []byte, n int, owners func(PFN) []int) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pagestore: partition into %d parts", n)
	}
	// A run is data[start:end] and its owner set is sets[lo:hi]. The
	// last run's set is always the tail of sets.
	type run struct{ start, end, lo, hi int }
	runs := make([]run, 0, 16)
	sets := make([]int, 0, 64)
	type total struct {
		bytes, runs int
		entries     uint32
	}
	totals := make([]total, n)
	off, entries := 8, uint32(0)
	// open says the last run may take the next entry. A set that names
	// one owner twice puts each entry in that part twice in a row, so
	// its run holds a single entry.
	open := false
	closeRun := func() {
		if len(runs) == 0 {
			return
		}
		r := &runs[len(runs)-1]
		r.end = off
		for _, o := range sets[r.lo:r.hi] {
			totals[o].bytes += r.end - r.start
			totals[o].runs++
			totals[o].entries += entries
		}
	}
	if err := walkSnapshot(data, func(pfn PFN, entry []byte) error {
		set := owners(pfn)
		if !open || !slices.Equal(sets[runs[len(runs)-1].lo:], set) {
			open = true
			for i, o := range set {
				if o < 0 || o >= n {
					return fmt.Errorf("pagestore: page %d assigned to owner %d of %d", pfn, o, n)
				}
				open = open && !slices.Contains(set[:i], o)
			}
			closeRun()
			lo := len(sets)
			sets = append(sets, set...)
			runs = append(runs, run{start: off, lo: lo, hi: len(sets)})
			entries = 0
		}
		off += len(entry)
		entries++
		return nil
	}); err != nil {
		return nil, err
	}
	closeRun()

	// Part i is segs[from[i]:from[i+1]] joined: its header, then its
	// runs in order. bytes.Join allocates the part at its exact size and
	// copies each run in once, without zeroing the part first.
	from := make([]int, n+1)
	for i, t := range totals {
		from[i+1] = from[i] + 1 + t.runs
	}
	segs := make([][]byte, from[n])
	next := slices.Clone(from[:n])
	hdrs := make([]byte, 8*n)
	for i, t := range totals {
		h := hdrs[8*i : 8*i+8]
		copy(h, snapMagic)
		binary.BigEndian.PutUint32(h[4:], t.entries)
		segs[next[i]] = h
		next[i]++
	}
	for _, r := range runs {
		for _, o := range sets[r.lo:r.hi] {
			segs[next[o]] = data[r.start:r.end]
			next[o]++
		}
	}
	parts := make([][]byte, n)
	for i := range parts {
		parts[i] = bytes.Join(segs[from[i]:from[i+1]], nil)
	}
	return parts, nil
}
