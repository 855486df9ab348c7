package pagestore

import (
	"bytes"
	"encoding/binary"
	"testing"

	"oasis/internal/lzf"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// mixImage builds an image whose pages cycle through the three encoder
// classes — zero, compressible, incompressible (raw) — in the proportions
// the mix string dictates ('z', 'c', 'r', one class per page, repeating).
func mixImage(t *testing.T, pages int64, mix string) *Image {
	t.Helper()
	im := NewImage(units.PagesBytes(pages))
	r := rng.New(7)
	raw := make([]byte, units.PageSize)
	for pfn := int64(0); pfn < pages; pfn++ {
		var page []byte
		switch mix[int(pfn)%len(mix)] {
		case 'z':
			continue // untouched: reads as zero
		case 'c':
			page = bytes.Repeat([]byte{byte(pfn%250 + 1)}, int(units.PageSize))
		case 'r':
			for i := range raw {
				raw[i] = byte(r.Int63n(256))
			}
			page = raw
		}
		if err := im.Write(PFN(pfn), page); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

// TestEncodePagesParallelMatchesSerial is the property test the tentpole
// rests on: for every worker count and page mix, the sharded encoder's
// output is byte-identical to the serial encoder's.
func TestEncodePagesParallelMatchesSerial(t *testing.T) {
	// 321 pages over 20 workers leaves the last shard empty.
	for _, pages := range []int64{300, 321} {
		for _, mix := range []string{"z", "c", "r", "zcr", "zzzzc", "rrc", "czzr"} {
			im := mixImage(t, pages, mix)
			pfns := make([]PFN, pages)
			for i := range pfns {
				pfns[i] = PFN(i)
			}
			// The serial encoder is the sharded one with a single shard,
			// so it is itself held to the format written out longhand.
			want := binary.BigEndian.AppendUint32([]byte(snapMagic), uint32(pages))
			for _, pfn := range pfns {
				page, _ := im.Read(pfn)
				token, payload := encodePage(page)
				want = binary.BigEndian.AppendUint64(want, uint64(pfn))
				want = append(binary.BigEndian.AppendUint16(want, token), payload...)
			}
			serial, err := EncodePages(im, pfns)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, want) {
				t.Fatalf("mix %q: serial output diverges from the format's definition", mix)
			}
			for _, workers := range []int{1, 2, 8, 64} {
				got, err := EncodePagesParallel(im, pfns, workers)
				if err != nil {
					t.Fatalf("mix %q workers %d: %v", mix, workers, err)
				}
				if !bytes.Equal(got, serial) {
					t.Fatalf("mix %q workers %d: parallel output diverges from serial (%d vs %d bytes)",
						mix, workers, len(got), len(serial))
				}
			}
		}
	}
}

// TestEncodeAllParallelMatchesSerial covers the convenience wrappers and
// an empty image.
func TestEncodeAllParallelMatchesSerial(t *testing.T) {
	im := mixImage(t, 200, "zcrc")
	serial, n, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	got, pn, err := EncodeAllParallel(im, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pn != n || !bytes.Equal(got, serial) {
		t.Fatalf("EncodeAllParallel diverges: %d/%d pages, equal=%v", pn, n, bytes.Equal(got, serial))
	}

	empty := NewImage(units.PagesBytes(16))
	se, _, err := EncodeAll(empty)
	if err != nil {
		t.Fatal(err)
	}
	pe, _, err := EncodeAllParallel(empty, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(se, pe) {
		t.Fatal("empty-image encodings diverge")
	}
}

// TestEncodeDirtySinceEpochBoundary pins the boundary semantics the
// agent's differential upload depends on: a page dirtied exactly AT the
// uploaded epoch was part of that upload and must not reappear in the
// next diff; only pages dirtied after the epoch advanced travel.
func TestEncodeDirtySinceEpochBoundary(t *testing.T) {
	im := NewImage(units.PagesBytes(8))
	page := bytes.Repeat([]byte{0x5A}, int(units.PageSize))
	if err := im.Write(0, page); err != nil {
		t.Fatal(err)
	}
	// The upload: encode, then advance the epoch the way the agent does.
	uploadedEpoch := im.NextEpoch()
	// Page 0 was dirtied exactly at uploadedEpoch — already uploaded.
	snap, n, err := EncodeDirtySince(im, uploadedEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("page dirtied at the uploaded epoch leaked into the diff (%d pages)", n)
	}
	if cnt := binary.BigEndian.Uint32(snap[4:8]); cnt != 0 {
		t.Fatalf("empty diff encodes %d pages", cnt)
	}
	// A page dirtied after the epoch advanced must travel...
	if err := im.Write(1, page); err != nil {
		t.Fatal(err)
	}
	// ...and re-dirtying the already-uploaded page re-includes it once.
	if err := im.Write(0, page); err != nil {
		t.Fatal(err)
	}
	_, n, err = EncodeDirtySince(im, uploadedEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("diff after boundary = %d pages, want 2", n)
	}
	// The parallel variant sees the same boundary.
	_, pn, err := EncodeDirtySinceParallel(im, uploadedEpoch, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pn != n {
		t.Fatalf("parallel diff = %d pages, serial = %d", pn, n)
	}
}

// TestSplitSnapshotReassembles holds the chunking invariants: every chunk
// is a valid self-contained snapshot within the size budget, entries are
// never split or reordered, and applying the chunks reproduces applying
// the original snapshot.
func TestSplitSnapshotReassembles(t *testing.T) {
	im := mixImage(t, 256, "zcrcc")
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	maxChunk := 8 + 10 + int(units.PageSize) // one header and one raw entry: many chunks
	chunks, err := SplitSnapshot(snap, maxChunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected several chunks, got %d", len(chunks))
	}
	var total uint32
	rebuilt := NewImage(im.Alloc())
	for i, ch := range chunks {
		if len(ch) > maxChunk {
			t.Fatalf("chunk %d is %d bytes > budget %d", i, len(ch), maxChunk)
		}
		total += binary.BigEndian.Uint32(ch[4:8])
		if err := ApplySnapshot(rebuilt, ch); err != nil {
			t.Fatalf("chunk %d does not stand alone: %v", i, err)
		}
	}
	if want := binary.BigEndian.Uint32(snap[4:8]); total != want {
		t.Fatalf("chunks carry %d entries, original %d", total, want)
	}
	direct := NewImage(im.Alloc())
	if err := ApplySnapshot(direct, snap); err != nil {
		t.Fatal(err)
	}
	a, _, err := EncodeAll(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := EncodeAll(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chunked apply diverges from direct apply")
	}
}

// TestSplitSnapshotEdgeCases: empty snapshots yield one empty chunk, and
// corrupt inputs are rejected rather than mis-split.
func TestSplitSnapshotEdgeCases(t *testing.T) {
	empty := NewImage(units.PagesBytes(4))
	snap, _, err := EncodeAll(empty)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitSnapshot(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || !bytes.Equal(chunks[0], snap) {
		t.Fatalf("empty snapshot split into %d chunks", len(chunks))
	}
	if _, err := SplitSnapshot([]byte("PAOS\x00\x00\x00\x00"), 1<<20); err == nil {
		t.Fatal("bad magic accepted")
	}
	im := mixImage(t, 32, "c")
	snap, _, err = EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitSnapshot(snap[:len(snap)-3], 1<<20); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	grown := append(append([]byte(nil), snap...), 0xEE)
	if _, err := SplitSnapshot(grown, 1<<20); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// encodePage is the reference EncodePageAppend is held to: compress
// aside, then pick the zero, raw or compressed token.
func encodePage(page []byte) (token uint16, payload []byte) {
	if IsZeroPage(page) {
		return tokenZero, nil
	}
	comp := lzf.Compress(nil, page)
	if len(comp) >= int(units.PageSize) {
		return tokenRawBit | uint16(units.PageSize&0x7FFF), page
	}
	return uint16(len(comp)), comp
}

// TestEncodePageAppendMatchesEncodePage pins the in-place encoder (token
// slot reserved, compressed straight into out, rolled back to raw) to
// the reference across all three page classes, behind a non-empty out.
func TestEncodePageAppendMatchesEncodePage(t *testing.T) {
	r := rng.New(3)
	raw := make([]byte, units.PageSize)
	for i := range raw {
		raw[i] = byte(r.Int63n(256))
	}
	for name, page := range map[string][]byte{
		"zero":         make([]byte, units.PageSize),
		"compressible": bytes.Repeat([]byte{0x42}, int(units.PageSize)),
		"raw":          raw,
	} {
		token, body := encodePage(page)
		want := binary.BigEndian.AppendUint16([]byte("prefix"), token)
		want = append(want, body...)
		got := EncodePageAppend([]byte("prefix"), page)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s page: append variant diverges (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestSnapshotCapacityAdapts checks the output-buffer estimate tracks
// observed compressibility and stays inside its clamp.
func TestSnapshotCapacityAdapts(t *testing.T) {
	prev := pageEstimate.Load()
	defer pageEstimate.Store(prev)

	pageEstimate.Store(0)
	// The compressor writes in place, so the hint carries one page of slack.
	if got := snapshotCapacity(100); got != 8+100*defaultPageEstimate+lzf.CompressBound(int(units.PageSize)) {
		t.Fatalf("unseeded capacity = %d", got)
	}
	// Feed raw-heavy snapshots: the estimate must climb toward the raw
	// entry size but never past the clamp.
	for i := 0; i < 50; i++ {
		observeSnapshot(10, 8+10*(10+int(units.PageSize)))
	}
	per := int(pageEstimate.Load())
	if per <= defaultPageEstimate {
		t.Fatalf("estimate did not adapt upward: %d", per)
	}
	if bound := 10 + int(units.PageSize) + int(units.PageSize)/32 + 2; per > bound {
		t.Fatalf("estimate %d exceeds clamp %d", per, bound)
	}
	// Zero-page-heavy snapshots pull it back down to the floor.
	for i := 0; i < 100; i++ {
		observeSnapshot(1000, 8+1000*10)
	}
	if per := int(pageEstimate.Load()); per < 10 || per > defaultPageEstimate {
		t.Fatalf("estimate did not adapt downward: %d", per)
	}
}

// BenchmarkEncodePageAppend is the GetPage hot path: zero allocations
// per page once out is warm.
func BenchmarkEncodePageAppend(b *testing.B) {
	page := bytes.Repeat([]byte{0x42, 0, 0, 0x17}, int(units.PageSize)/4)
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = EncodePageAppend(out[:0], page)
	}
}

// BenchmarkEncodePagesParallel measures the sharded encoder against the
// serial one on a mixed 16 MiB image.
func BenchmarkEncodePagesSerial(b *testing.B)   { benchEncode(b, 1) }
func BenchmarkEncodePagesParallel(b *testing.B) { benchEncode(b, 8) }

func benchEncode(b *testing.B, workers int) {
	im := NewImage(16 * units.MiB)
	r := rng.New(11)
	raw := make([]byte, units.PageSize)
	for pfn := int64(0); pfn < im.NumPages(); pfn++ {
		switch pfn % 3 {
		case 0:
			continue
		case 1:
			im.Write(PFN(pfn), bytes.Repeat([]byte{byte(pfn)}, int(units.PageSize)))
		case 2:
			for i := range raw {
				raw[i] = byte(r.Int63n(256))
			}
			im.Write(PFN(pfn), raw)
		}
	}
	pfns := im.AllTouched()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePagesParallel(im, pfns, workers); err != nil {
			b.Fatal(err)
		}
	}
}
