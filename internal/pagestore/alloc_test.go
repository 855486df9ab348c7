//go:build !race

package pagestore

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"oasis/internal/allocgate"
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

// TestEncodeReservesOnce is the snapshot encoder's allocation gate: a
// whole-image encode reserves its output once, also straight after a run
// of small well-compressed diffs, which must not shrink the image's
// reservation into a chain of regrowths. Each shard costs its buffer
// and, past the first, the goroutine that fills it; shard 0's buffer
// holds the whole snapshot and the others their own part, so at 4
// shards the bytes come to about 1.75x the snapshot plus the headroom.
// The count holds the collector off and starts from a warmed scheduler
// (allocgate.WarmScheduler): a shard's goroutine may otherwise find no
// spare descriptor on its P and allocate one, and a cycle landing inside
// the encode parks its own workers, so a cold or collecting run reads 11
// or 12 at 4 shards. One encode before any warming is logged beside it.
func TestEncodeReservesOnce(t *testing.T) {
	im := partitionImage(t, 23, 4096)
	var constant []PFN // pages of one repeated byte
	for _, pfn := range im.AllTouched() {
		if p, _ := im.Read(pfn); bytes.Count(p, p[:1]) == len(p) && len(constant) < 64 {
			constant = append(constant, pfn)
		}
	}
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			var snap []byte
			var err error
			encode := func() { snap, _, err = EncodeAll(im) }
			for range 16 {
				encode()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			runtime.GC()
			allocs, allocBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			var unwarmed uint64
			for i := range 4 {
				for range 8 {
					epoch := im.NextEpoch()
					for _, pfn := range constant {
						p, _ := im.Read(pfn)
						if err := im.Write(pfn, p); err != nil {
							t.Fatal(err)
						}
					}
					if _, _, err := EncodeDirtySince(im, epoch); err != nil {
						t.Fatal(err)
					}
				}
				if i > 0 {
					allocgate.WarmScheduler()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				encode()
				runtime.ReadMemStats(&after)
				if i == 0 {
					unwarmed = after.Mallocs - before.Mallocs
					continue
				}
				allocs = min(allocs, after.Mallocs-before.Mallocs)
				allocBytes = min(allocBytes, after.TotalAlloc-before.TotalAlloc)
			}
			if err != nil {
				t.Fatal(err)
			}
			shards := uint64(min(procs, len(im.AllTouched())/minShardPages))
			ratio := float64(allocBytes) / float64(len(snap))
			t.Logf("GOMAXPROCS %d: %d shards, %d allocations (%d unwarmed), %d bytes for a %d-byte snapshot (%.2fx)",
				procs, shards, allocs, unwarmed, allocBytes, len(snap), ratio)
			if allocs > 2*shards+2 {
				t.Errorf("GOMAXPROCS %d: %d allocations for %d shards; want at most %d", procs, allocs, shards, 2*shards+2)
			}
			if ratio > 2.5 {
				t.Errorf("GOMAXPROCS %d: the encode allocates %.2fx its snapshot's bytes; want at most 2.5x", procs, ratio)
			}
		})
	}
}
