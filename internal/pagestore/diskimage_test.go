package pagestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"oasis/internal/rng"
	"oasis/internal/units"
)

func buildDiskImage(t *testing.T) (*Image, string) {
	t.Helper()
	r := rng.New(31)
	im := NewImage(16 * units.MiB)
	for i := 0; i < 200; i++ {
		pfn := PFN(r.Intn(int(im.NumPages())))
		if err := im.Write(pfn, fillPage(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Include an explicitly zeroed page.
	if err := im.Write(7, fillPage(r)); err != nil {
		t.Fatal(err)
	}
	if err := im.Write(7, make([]byte, units.PageSize)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vm.img")
	if _, err := WriteImageFile(path, im); err != nil {
		t.Fatal(err)
	}
	return im, path
}

func TestDiskImageRoundTrip(t *testing.T) {
	im, path := buildDiskImage(t)
	d, err := LoadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Alloc() != im.Alloc() {
		t.Fatalf("alloc = %v, want %v", d.Alloc(), im.Alloc())
	}
	for _, pfn := range im.AllTouched() {
		want, _ := im.Read(pfn)
		got, err := d.Read(pfn)
		if err != nil {
			t.Fatalf("Read(%d): %v", pfn, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d mismatch from disk", pfn)
		}
	}
	// Untouched and explicitly-zeroed pages read as zeros.
	for _, pfn := range []PFN{7, 4000} {
		got, err := d.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !IsZeroPage(got) {
			t.Fatalf("page %d not zero from disk", pfn)
		}
	}
	// Out of range is rejected.
	if _, err := d.Read(PFN(d.Alloc().Pages())); err == nil {
		t.Error("out-of-range disk read accepted")
	}
}

// TestDiskImageLoad: a loaded image holds the file's entries as they
// lie (no decompress at start-up), and writing it again reproduces the
// file byte for byte (no compress at persist).
func TestDiskImageLoad(t *testing.T) {
	im, path := buildDiskImage(t)
	loaded, err := LoadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TouchedPages() != im.TouchedPages() {
		t.Fatalf("loaded %d pages, want %d", loaded.TouchedPages(), im.TouchedPages())
	}
	for _, pfn := range im.AllTouched() {
		a, _ := im.Read(pfn)
		b, _ := loaded.Read(pfn)
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs after disk round trip", pfn)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if live, held := loaded.WireBytes(); live == 0 || held != int64(len(file)-12) {
		t.Fatalf("loaded image references %d bytes of %d held, want the %d-byte file body adopted", live, held, len(file)-12)
	}
	again := filepath.Join(t.TempDir(), "again.img")
	if _, err := WriteImageFile(again, loaded); err != nil {
		t.Fatal(err)
	}
	if rewritten, _ := os.ReadFile(again); !bytes.Equal(rewritten, file) {
		t.Fatal("an image file loaded and written again differs from the original")
	}
}

func TestOpenImageFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not an image at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImageFile(path); err == nil {
		t.Error("garbage file opened as disk image")
	}
	if _, err := LoadImageFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file opened")
	}
	// A dictionary snapshot shares the old image file's magic. It must
	// be refused, not opened with its page entries read as an index.
	im, _ := buildDiskImage(t)
	plain, n, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	snap := dictSnapshot(bytes.Repeat([]byte("dictionary "), 300), n, plain[8:])
	if string(snap[:4]) != legacyImageMagic {
		t.Fatalf("dictionary snapshot magic %q", snap[:4])
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImageFile(path); err == nil {
		t.Error("dictionary snapshot opened as disk image")
	}
	// So are files cut short anywhere.
	_, good := buildDiskImage(t)
	whole, _ := os.ReadFile(good)
	for _, n := range []int{3, 11, 12, 19, 20, len(whole) / 2, len(whole) - 1} {
		if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadImageFile(path); err == nil {
			t.Errorf("image file cut to %d of %d bytes opened", n, len(whole))
		}
	}
}

func TestDiskImageConcurrentReads(t *testing.T) {
	im, path := buildDiskImage(t)
	d, err := LoadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pfns := im.AllTouched()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				pfn := pfns[(g*100+i)%len(pfns)]
				want, _ := im.Read(pfn)
				got, err := d.Read(pfn)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, want) {
					done <- os.ErrInvalid
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
