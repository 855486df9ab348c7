package shard

import (
	"bytes"
	"testing"

	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// elisionImage builds an image of near-template pages with explicit zero
// writes mixed in, so zero-token entries travel beside untouched pages.
func elisionImage(t *testing.T, seed uint64, pages int64) *pagestore.Image {
	t.Helper()
	im := pagestore.NewImage(units.Bytes(pages) * units.PageSize)
	r := rng.New(seed)
	template := make([]byte, units.PageSize)
	for i := range template {
		template[i] = byte(r.Uint64())
	}
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); int64(pfn) < pages; pfn++ {
		switch r.Int63n(5) {
		case 0: // untouched
			continue
		case 1: // dirty-but-zero: elided as a zero token on the wire
			if err := im.Write(pfn, nil); err != nil {
				t.Fatal(err)
			}
		default: // template mutation
			copy(page, template)
			for j := 0; j < 12; j++ {
				page[r.Int63n(int64(len(page)))] = byte(r.Uint64())
			}
			if err := im.Write(pfn, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	return im
}

// TestShardZeroElisionBitIdentical is the zero-page counterpart of
// TestShardReassemblyMatchesSingleServer: a snapshot carrying zero-token
// entries, pushed through a 3-backend fabric over both the one-shot
// partitioned path and the chunked streaming path, reads back to exactly
// the source image's canonical encoding, and every page written back to
// zero comes back as a genuine zero page.
func TestShardZeroElisionBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		im := elisionImage(t, seed, 256)
		snap, _, err := pagestore.EncodeDirtySince(im, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pagestore.EncodeAll(im) // canonical encoding of the source
		if err != nil {
			t.Fatal(err)
		}
		touched := map[pagestore.PFN]bool{}
		for _, pfn := range im.AllTouched() {
			touched[pfn] = true
		}
		var zeroed []pagestore.PFN
		for _, pfn := range im.DirtySince(0) {
			if !touched[pfn] {
				zeroed = append(zeroed, pfn)
			}
		}
		if len(zeroed) == 0 {
			t.Fatalf("seed %d: no zero-token entry in the snapshot", seed)
		}

		const vmid = pagestore.VMID(90)
		oneshot := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
		if err := oneshot.client.PutImage(vmid, im.Alloc(), snap); err != nil {
			t.Fatalf("seed %d: PutImage: %v", seed, err)
		}
		streamed := newFabric(t, 3, Config{Replicas: 2, RangePages: 8})
		err = streamed.client.StreamImage(vmid, im.Alloc(), snap,
			memserver.PutOptions{Streams: 3, ChunkBytes: 32 << 10})
		if err != nil {
			t.Fatalf("seed %d: StreamImage: %v", seed, err)
		}
		for name, f := range map[string]*fabric{"one-shot": oneshot, "streamed": streamed} {
			if got := readBack(t, f.client, vmid, im); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: %s upload diverges from source", seed, name)
			}
			for _, pfn := range zeroed {
				p, err := f.client.GetPage(vmid, pfn)
				if err != nil {
					t.Fatal(err)
				}
				if !pagestore.IsZeroPage(p) {
					t.Fatalf("seed %d: %s: elided page %d not zero after fabric round trip", seed, name, pfn)
				}
			}
		}
	}
}
