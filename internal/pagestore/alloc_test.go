//go:build !race

package pagestore

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"oasis/internal/rng"
	"oasis/internal/units"
)

// The race detector's instrumentation adds allocations of its own, so
// the exact counts are held in uninstrumented builds only.

// TestDecodePageOneAlloc is the client fault path's allocation gate:
// decoding a compressed page costs the page it returns and nothing else
// (the byte-at-a-time decoder regrew its output 12 times, 12.5 KB).
func TestDecodePageOneAlloc(t *testing.T) {
	enc := EncodePageAppend(nil, fillPage(rng.New(5)))
	token, payload := binary.BigEndian.Uint16(enc), enc[2:]
	if n, err := PageBodyLen(token); err != nil || n != len(payload) || len(payload) >= int(units.PageSize) {
		t.Fatalf("want a compressed page, got token %#x with %d bytes", token, len(payload))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodePage(token, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("DecodePage allocates %.0f times per page, want 1", allocs)
	}
}

// TestApplySnapshotKeepsDecodedPage: a compressed page costs the image
// one page-sized allocation, the one it is decoded into and then kept.
func TestApplySnapshotKeepsDecodedPage(t *testing.T) {
	src := NewImage(1 * units.MiB)
	r := rng.New(6)
	for pfn := PFN(0); pfn < 64; pfn++ {
		src.Write(pfn, fillPage(r))
	}
	snap, n, err := EncodeAll(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewImage(1 * units.MiB)
	if err := ApplySnapshot(dst, snap); err != nil { // grow the maps first
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ApplySnapshot(dst, snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != float64(n) {
		t.Fatalf("ApplySnapshot of %d compressed pages allocates %.0f times, want one per page", n, allocs)
	}
	for pfn := PFN(0); pfn < 64; pfn++ {
		want, _ := src.Read(pfn)
		if got, _ := dst.Read(pfn); !bytes.Equal(got, want) {
			t.Fatalf("pfn %d differs after apply", pfn)
		}
	}
}

// TestPartitionSnapshotAllocatesItsParts is the fabric write side's
// allocation gate: partitioning allocates each part once, at its exact
// size, plus a few small bookkeeping slices whose number does not grow
// with the snapshot (the per-page version regrew every part, ~3.3x the
// part bytes). Owners here are what the fabric hands over: one set per
// 4 MiB range, R = 2 of 3.
func TestPartitionSnapshotAllocatesItsParts(t *testing.T) {
	const n, rangePages = 3, 1024
	sets := [][]int{{0, 1}, {1, 2}, {2, 0}}
	owners := func(pfn PFN) []int { return sets[int(pfn/rangePages)%len(sets)] }
	var counts []float64
	for _, pages := range []int64{rangePages, 8 * rangePages} {
		snap, _, err := EncodeAll(partitionImage(t, 19, pages))
		if err != nil {
			t.Fatal(err)
		}
		parts, err := PartitionSnapshot(snap, n, owners)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, p := range parts {
			sum += len(p)
		}
		partition := func() {
			if _, err := PartitionSnapshot(snap, n, owners); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, partition)
		// Large objects are rounded up to 8 KiB pages; bookkeeping is
		// well under 4 KiB.
		slack := uint64(n*8<<10 + 4<<10)
		if got := minAllocBytes(5, partition); got > uint64(sum)+slack {
			t.Errorf("%d pages: partitioning allocates %d bytes for %d bytes of parts (%.2fx); want at most %d more",
				pages, got, sum, float64(got)/float64(sum), slack)
		}
		t.Logf("%d pages: %.0f allocations, %d bytes of parts", pages, allocs, sum)
		counts = append(counts, allocs)
	}
	if counts[1] != counts[0] || counts[0] > n+8 {
		t.Fatalf("partitioning allocates %.0f times at 1 range and %.0f at 8; want the same, at most %d",
			counts[0], counts[1], n+8)
	}
}

// minAllocBytes returns the fewest bytes fn allocated over reps runs:
// allocations by anything else running in the process only ever add.
func minAllocBytes(reps int, fn func()) uint64 {
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	for range reps {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}
