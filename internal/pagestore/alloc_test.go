//go:build !race

package pagestore

import (
	"bytes"
	"encoding/binary"
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
	if PageBodyLen(token) != len(payload) || len(payload) >= int(units.PageSize) {
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
