package main

import (
	"bytes"
	"testing"

	"oasis"
)

func TestDesktopImageDeterministicPerSeed(t *testing.T) {
	a := newDesktopImage(42, 4*oasis.MiB)
	b := newDesktopImage(42, 4*oasis.MiB)
	c := newDesktopImage(7, 4*oasis.MiB)
	if !bytes.Equal(a.slab, b.slab) {
		t.Error("one seed gave two different images")
	}
	if bytes.Equal(a.slab, c.slab) {
		t.Error("two seeds gave the same image")
	}
}

func TestDesktopImageMixAndRatio(t *testing.T) {
	for _, alloc := range []oasis.Bytes{4 * oasis.MiB, 32 * oasis.MiB} {
		for _, seed := range []uint64{1, 7, 42, 1 << 40} {
			d := newDesktopImage(seed, alloc)
			im, err := d.image()
			if err != nil {
				t.Fatal(err)
			}
			snap, pages, err := oasis.EncodeImage(im)
			if err != nil {
				t.Fatal(err)
			}
			if pages != len(d.touched) {
				t.Errorf("seed %d: %d pages encoded, %d touched", seed, pages, len(d.touched))
			}
			// checkMix asserts the 25/60/15 shares and the 2.7-3.3x ratio.
			if ratio, err := d.checkMix(len(snap)); err != nil {
				t.Errorf("seed %d, %v: %v (ratio %.3f)", seed, alloc, err, ratio)
			}
			for pfn := 0; pfn < d.ptPages; pfn++ {
				if d.class[pfn] != classZero {
					t.Fatalf("page-table frame %d was generated as class %d", pfn, d.class[pfn])
				}
			}
		}
	}
}

func TestCheckMixRejectsAWrongRatio(t *testing.T) {
	d := newDesktopImage(42, 4*oasis.MiB)
	if _, err := d.checkMix(len(d.touched) * pageSize); err == nil {
		t.Error("an incompressible snapshot passed the ratio check")
	}
}

func TestRestoreUndoesDirtying(t *testing.T) {
	d := newDesktopImage(42, 4*oasis.MiB)
	im, err := d.image()
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := oasis.EncodeImage(im)
	if err != nil {
		t.Fatal(err)
	}
	d.keepBase()
	r := newRNG(42, 1)
	pfns := d.pickPFNs(r, 100, nil)
	for _, pfn := range pfns {
		if err := im.Write(pfn, d.dirty(r, pfn)); err != nil {
			t.Fatal(err)
		}
	}
	if changed, _, _ := oasis.EncodeImage(im); bytes.Equal(before, changed) {
		t.Fatal("dirtying 100 pages left the snapshot unchanged")
	}
	if err := d.restore(pfns, im); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := oasis.EncodeImage(im); !bytes.Equal(before, after) {
		t.Error("restore did not bring the image back")
	}
}

func TestPickPFNsDistinctAndAboveThePageTable(t *testing.T) {
	d := newDesktopImage(3, 4*oasis.MiB)
	seen := map[oasis.PFN]bool{}
	for _, pfn := range d.pickPFNs(newRNG(3, 9), 500, nil) {
		if seen[pfn] || int(pfn) < d.ptPages || int(pfn) >= d.npages() {
			t.Fatalf("bad pick %d", pfn)
		}
		seen[pfn] = true
	}
	if len(seen) != 500 {
		t.Errorf("%d picks, want 500", len(seen))
	}
}
