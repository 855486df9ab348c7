package pagestore

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"oasis/internal/rng"
	"oasis/internal/units"
)

func fillPage(r *rng.Rand) []byte {
	p := make([]byte, units.PageSize)
	for i := 0; i < 32; i++ {
		off := r.Intn(len(p) - 8)
		for j := 0; j < 8; j++ {
			p[off+j] = byte(r.Uint64())
		}
	}
	return p
}

func TestImageReadWrite(t *testing.T) {
	im := NewImage(16 * units.MiB)
	if got := im.NumPages(); got != 4096 {
		t.Fatalf("NumPages = %d, want 4096", got)
	}
	data := bytes.Repeat([]byte{0xAB}, int(units.PageSize))
	if err := im.Write(5, data); err != nil {
		t.Fatal(err)
	}
	got, err := im.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	// Untouched page reads as zeros.
	z, err := im.Read(6)
	if err != nil {
		t.Fatal(err)
	}
	if !IsZeroPage(z) {
		t.Fatal("untouched page not zero")
	}
	if im.TouchedPages() != 1 {
		t.Fatalf("TouchedPages = %d, want 1", im.TouchedPages())
	}
}

func TestImageOutOfRange(t *testing.T) {
	im := NewImage(4 * units.KiB)
	if err := im.Write(1, nil); err == nil {
		t.Error("write beyond allocation accepted")
	}
	if _, err := im.Read(1); err == nil {
		t.Error("read beyond allocation accepted")
	}
}

func TestZeroWriteReleasesStorage(t *testing.T) {
	im := NewImage(1 * units.MiB)
	if err := im.Write(0, bytes.Repeat([]byte{1}, int(units.PageSize))); err != nil {
		t.Fatal(err)
	}
	if im.TouchedPages() != 1 {
		t.Fatal("page not stored")
	}
	if err := im.Write(0, make([]byte, units.PageSize)); err != nil {
		t.Fatal(err)
	}
	if im.TouchedPages() != 0 {
		t.Fatal("zero write did not release storage")
	}
	// But the page is still dirty.
	if got := im.DirtySince(0); len(got) != 1 {
		t.Fatalf("DirtySince = %v, want one page", got)
	}
}

func TestDirtyEpochs(t *testing.T) {
	im := NewImage(1 * units.MiB)
	one := []byte{1}
	if err := im.Write(0, one); err != nil {
		t.Fatal(err)
	}
	if err := im.Write(1, one); err != nil {
		t.Fatal(err)
	}
	base := im.NextEpoch()
	if err := im.Write(1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := im.Write(2, one); err != nil {
		t.Fatal(err)
	}
	dirty := im.DirtySince(base)
	if len(dirty) != 2 || dirty[0] != 1 || dirty[1] != 2 {
		t.Fatalf("DirtySince(base) = %v, want [1 2]", dirty)
	}
	// Everything since epoch 0.
	if got := im.DirtySince(0); len(got) != 3 {
		t.Fatalf("DirtySince(0) = %v, want 3 pages", got)
	}
	im.ClearDirty()
	if got := im.DirtySince(0); len(got) != 0 {
		t.Fatalf("after ClearDirty, DirtySince(0) = %v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := rng.New(11)
	src := NewImage(64 * units.MiB)
	for i := 0; i < 100; i++ {
		pfn := PFN(r.Intn(int(src.NumPages())))
		if err := src.Write(pfn, fillPage(r)); err != nil {
			t.Fatal(err)
		}
	}
	snap, n, err := EncodeAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != src.TouchedPages() {
		t.Fatalf("encoded %d pages, touched %d", n, src.TouchedPages())
	}
	dst := NewImage(64 * units.MiB)
	if err := ApplySnapshot(dst, snap); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range src.AllTouched() {
		a, _ := src.Read(pfn)
		b, _ := dst.Read(pfn)
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs after snapshot round trip", pfn)
		}
	}
	if dst.TouchedPages() != src.TouchedPages() {
		t.Fatalf("touched pages differ: %d vs %d", dst.TouchedPages(), src.TouchedPages())
	}
}

func TestSnapshotCompresses(t *testing.T) {
	src := NewImage(16 * units.MiB)
	// Highly compressible pages.
	page := bytes.Repeat([]byte("oasis"), int(units.PageSize)/5+1)[:units.PageSize]
	for pfn := PFN(0); pfn < 256; pfn++ {
		if err := src.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := EncodeAll(src)
	if err != nil {
		t.Fatal(err)
	}
	raw := 256 * int(units.PageSize)
	if len(snap) > raw/4 {
		t.Errorf("snapshot %d bytes, want < %d (4x compression)", len(snap), raw/4)
	}
}

func TestDifferentialSmallerThanFull(t *testing.T) {
	r := rng.New(9)
	im := NewImage(64 * units.MiB)
	for i := 0; i < 200; i++ {
		if err := im.Write(PFN(i), fillPage(r)); err != nil {
			t.Fatal(err)
		}
	}
	base := im.NextEpoch()
	for i := 0; i < 10; i++ {
		if err := im.Write(PFN(i), fillPage(r)); err != nil {
			t.Fatal(err)
		}
	}
	full, nFull, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	diff, nDiff, err := EncodeDirtySince(im, base)
	if err != nil {
		t.Fatal(err)
	}
	if nDiff != 10 || nFull != 200 {
		t.Fatalf("diff %d pages, full %d pages; want 10 and 200", nDiff, nFull)
	}
	if len(diff) >= len(full)/2 {
		t.Errorf("differential %d bytes not much smaller than full %d", len(diff), len(full))
	}
}

func TestDecodeSnapshotCorrupt(t *testing.T) {
	if err := ApplySnapshot(NewImage(1*units.MiB), []byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	im := NewImage(1 * units.MiB)
	if err := im.Write(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the page payload.
	if err := ApplySnapshot(NewImage(1*units.MiB), snap[:len(snap)-1]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Trailing garbage.
	if err := ApplySnapshot(NewImage(1*units.MiB), append(snap, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestEncodeDecodePage(t *testing.T) {
	r := rng.New(21)
	cases := [][]byte{
		make([]byte, units.PageSize), // zero
		fillPage(r),                  // sparse
	}
	// Incompressible page.
	inc := make([]byte, units.PageSize)
	for i := range inc {
		inc[i] = byte(r.Uint64())
	}
	cases = append(cases, inc)
	for i, page := range cases {
		enc := EncodePageAppend(nil, page)
		got, err := DecodePage(binary.BigEndian.Uint16(enc), enc[2:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

// TestIsZeroMatchesByteLoop checks the word-at-a-time scan against the
// byte loop on every length around the word size, with the one non-zero
// byte at every position (short and unaligned tails included).
func TestIsZeroMatchesByteLoop(t *testing.T) {
	byteLoop := func(p []byte) bool {
		for _, b := range p {
			if b != 0 {
				return false
			}
		}
		return true
	}
	buf := make([]byte, 64)
	for start := 0; start < 8; start++ {
		for n := 0; start+n <= 40; n++ {
			p := buf[start : start+n]
			if !IsZeroPage(p) {
				t.Fatalf("IsZeroPage(%d zero bytes at offset %d) = false", n, start)
			}
			for i := range p {
				p[i] = 0x80
				if IsZeroPage(p) != byteLoop(p) {
					t.Fatalf("len %d offset %d: non-zero byte at %d missed", n, start, i)
				}
				p[i] = 0
			}
		}
	}
	if !IsZeroPage(nil) || !IsZeroPage(zeroPage) {
		t.Fatal("nil or the shared zero page not zero")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	im, err := s.Create(1001, 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(1001, 4*units.MiB); err == nil {
		t.Error("duplicate create accepted")
	}
	got, err := s.Get(1001)
	if err != nil || got != im {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := s.Get(9999); err == nil {
		t.Error("unknown vm lookup succeeded")
	}
	if err := im.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Delete(1001)
	if s.Len() != 0 {
		t.Fatal("delete failed")
	}
	s.Delete(1001) // idempotent
}

func TestQuickImageWriteRead(t *testing.T) {
	im := NewImage(4 * units.MiB)
	f := func(pfnRaw uint16, data []byte) bool {
		pfn := PFN(pfnRaw) % PFN(im.NumPages())
		if len(data) > int(units.PageSize) {
			data = data[:units.PageSize]
		}
		if err := im.Write(pfn, data); err != nil {
			return false
		}
		got, err := im.Read(pfn)
		if err != nil {
			return false
		}
		// Read must return data padded with zeros to page size.
		for i := 0; i < int(units.PageSize); i++ {
			want := byte(0)
			if i < len(data) {
				want = data[i]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsSharedZero(t *testing.T) {
	p, err := DecodePage(tokenZero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSharedZero(p) {
		t.Fatal("zero-token decode is not the shared zero page")
	}
	if IsSharedZero(make([]byte, units.PageSize)) {
		t.Fatal("fresh zero slice misidentified as shared")
	}
	if IsSharedZero(nil) {
		t.Fatal("nil misidentified as shared zero")
	}
}

// dictSnapshot frames count entries (body) under the dictionary snapshot
// header earlier versions wrote: "OAPD" | u32 count | u32 dictionary
// length | dictionary.
func dictSnapshot(dict []byte, count int, body []byte) []byte {
	out := binary.BigEndian.AppendUint32([]byte("OAPD"), uint32(count))
	out = append(binary.BigEndian.AppendUint32(out, uint32(len(dict))), dict...)
	return append(out, body...)
}

// TestDictionaryInputRefused: a dictionary snapshot header and a
// dictionary token (0x4000|len) are refused by name wherever snapshot
// bytes or page tokens are read, the token with its page number and
// before the 16 KiB+ length it implies as a plain token is trusted.
func TestDictionaryInputRefused(t *testing.T) {
	good := EncodePageAppend(binary.BigEndian.AppendUint64(nil, 3), fillPage(rng.New(9)))
	dictEntry := append(binary.BigEndian.AppendUint64(nil, 4), 0x40, 0x02, 0x00, 'a')
	withToken := binary.BigEndian.AppendUint32([]byte(snapMagic), 2)
	withToken = append(append(withToken, good...), dictEntry...)
	const (
		header = `pagestore: dictionary snapshot ("OAPD") is not supported`
		token  = "dictionary-compressed entry (token 0x4002) is not supported"
	)
	for _, c := range []struct {
		name, want string
		snap       []byte
	}{
		{"dictionary header", header, dictSnapshot([]byte("dictionary"), 1, good)},
		{"empty dictionary header", header, dictSnapshot(nil, 0, nil)},
		{"dictionary token", "pagestore: page 4: " + token, withToken},
	} {
		_, stageErr := NewImage(1 * units.MiB).Stage(bytes.Clone(c.snap))
		_, splitErr := SplitSnapshotRefs(c.snap, 1<<20)
		_, partErr := PartitionSnapshot(c.snap, 2, func(PFN) []int { return []int{0} })
		for path, err := range map[string]error{
			"ApplySnapshot":     ApplySnapshot(NewImage(1*units.MiB), c.snap),
			"Stage":             stageErr,
			"SplitSnapshotRefs": splitErr,
			"PartitionSnapshot": partErr,
		} {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: %s: error %v, want %q", c.name, path, err, c.want)
			}
		}
	}
	if n, err := PageBodyLen(0x4002); err == nil || err.Error() != token {
		t.Errorf("PageBodyLen framed a dictionary token as %d bytes: %v", n, err)
	}
	if _, err := DecodePage(0x4002, []byte{0x00, 'a'}); err == nil || err.Error() != "pagestore: "+token {
		t.Errorf("DecodePage of a dictionary token: %v", err)
	}
}
