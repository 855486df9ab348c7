package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
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

// coreCounts are the GOMAXPROCS values the encoder is held to: one
// shard, an even and an odd split, and more cores than this box has.
var coreCounts = []int{1, 2, 3, 8}

// atProcs runs fn with GOMAXPROCS set to n, which is the encoder's shard
// count for a long enough page list.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestEncodePagesParallelMatchesSerial is the property test the sharded
// encoder rests on: for every core count and page mix, its output is
// byte-identical to the one-shard encoding.
func TestEncodePagesParallelMatchesSerial(t *testing.T) {
	// 321 pages over 8 shards leaves a short last shard.
	for _, pages := range []int64{300, 321} {
		for _, mix := range []string{"z", "c", "r", "zcr", "zzzzc", "rrc", "czzr"} {
			im := mixImage(t, pages, mix)
			pfns := make([]PFN, pages)
			for i := range pfns {
				pfns[i] = PFN(i)
			}
			// The encoder on one core is a single shard, so it is itself
			// held to the format written out longhand.
			want := binary.BigEndian.AppendUint32([]byte(snapMagic), uint32(pages))
			for _, pfn := range pfns {
				page, _ := im.Read(pfn)
				token, payload := encodePage(page)
				want = binary.BigEndian.AppendUint64(want, uint64(pfn))
				want = append(binary.BigEndian.AppendUint16(want, token), payload...)
			}
			var serial []byte
			var err error
			atProcs(1, func() { serial, err = EncodePages(im, pfns) })
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, want) {
				t.Fatalf("mix %q: serial output diverges from the format's definition", mix)
			}
			for _, procs := range coreCounts {
				var got []byte
				atProcs(procs, func() { got, err = EncodePages(im, pfns) })
				if err != nil {
					t.Fatalf("mix %q procs %d: %v", mix, procs, err)
				}
				if !bytes.Equal(got, serial) {
					t.Fatalf("mix %q procs %d: parallel output diverges from serial (%d vs %d bytes)",
						mix, procs, len(got), len(serial))
				}
			}
		}
	}
}

// TestEncodeAllParallelMatchesSerial covers the whole-image encoder and
// an empty image.
func TestEncodeAllParallelMatchesSerial(t *testing.T) {
	im := mixImage(t, 200, "zcrc")
	empty := NewImage(units.PagesBytes(16))
	var serial, se []byte
	var n int
	var err error
	atProcs(1, func() {
		if serial, n, err = EncodeAll(im); err == nil {
			se, _, err = EncodeAll(empty)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range coreCounts {
		var got, pe []byte
		var pn int
		atProcs(procs, func() {
			if got, pn, err = EncodeAll(im); err == nil {
				pe, _, err = EncodeAll(empty)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if pn != n || !bytes.Equal(got, serial) {
			t.Fatalf("procs %d: EncodeAll diverges: %d/%d pages, equal=%v", procs, pn, n, bytes.Equal(got, serial))
		}
		if !bytes.Equal(se, pe) {
			t.Fatalf("procs %d: empty-image encodings diverge", procs)
		}
	}
}

// TestEncodeDirtySinceMatchesSerial: a diff is the same bytes on any
// number of cores.
func TestEncodeDirtySinceMatchesSerial(t *testing.T) {
	im := mixImage(t, 400, "zcrcc")
	epoch := im.NextEpoch()
	for pfn := PFN(0); pfn < 400; pfn += 3 {
		if err := im.Write(pfn, bytes.Repeat([]byte{byte(pfn)}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
	}
	var serial []byte
	var n int
	var err error
	atProcs(1, func() { serial, n, err = EncodeDirtySince(im, epoch) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 134 {
		t.Fatalf("diff holds %d pages, want 134", n)
	}
	for _, procs := range coreCounts {
		var got []byte
		var pn int
		atProcs(procs, func() { got, pn, err = EncodeDirtySince(im, epoch) })
		if err != nil {
			t.Fatal(err)
		}
		if pn != n || !bytes.Equal(got, serial) {
			t.Fatalf("procs %d: EncodeDirtySince diverges: %d/%d pages, equal=%v", procs, pn, n, bytes.Equal(got, serial))
		}
	}
}

// TestShardedEncodeIsOneCut: the shards of one snapshot read the image
// at one point in time. A writer stamps generation g on every page from
// the highest PFN down, so any one instant shows generation g on a top
// run of pages and g-1 below it. A shard that read at another instant
// than its neighbours would show up as a generation that falls as the
// PFN rises, or as a spread of more than one.
func TestShardedEncodeIsOneCut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pages = 128 // four shards of 32
	im := NewImage(units.PagesBytes(pages))
	page := make([]byte, units.PageSize)
	stamp := func(pfn PFN, gen uint64) {
		binary.LittleEndian.PutUint64(page, gen)
		if err := im.Write(pfn, page); err != nil {
			t.Error(err)
		}
	}
	for pfn := PFN(0); pfn < pages; pfn++ {
		stamp(pfn, 1)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for gen := uint64(2); ; gen++ {
			for pfn := PFN(pages - 1); ; pfn-- {
				stamp(pfn, gen)
				if pfn == 0 {
					break
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for rep := 0; rep < 200; rep++ {
		snap, n, err := EncodeAll(im)
		if err != nil {
			t.Fatal(err)
		}
		if n != pages {
			t.Fatalf("rep %d: %d pages, want %d", rep, n, pages)
		}
		var lo, hi, prev uint64
		err = walkSnapshot(snap, func(pfn PFN, entry []byte) error {
			p, err := DecodePage(binary.BigEndian.Uint16(entry[8:]), entry[10:])
			if err != nil {
				return err
			}
			gen := binary.LittleEndian.Uint64(p)
			if gen < prev {
				return fmt.Errorf("pfn %d holds generation %d below pfn %d's %d", pfn, gen, pfn-1, prev)
			}
			if pfn == 0 {
				lo = gen
			}
			prev, hi = gen, gen
			return nil
		})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if hi-lo > 1 {
			t.Fatalf("rep %d: generations %d to %d in one snapshot", rep, lo, hi)
		}
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

// TestSnapshotCapacityAdapts checks the output-buffer estimate: it
// reserves 1/8 over its value, takes a larger observation at once
// (rounded up), falls back by a quarter of the gap, stays inside its
// clamp, and keeps whole images apart from page lists.
func TestSnapshotCapacityAdapts(t *testing.T) {
	var e sizeEstimate
	// The compressor writes in place, so the hint carries one page of slack.
	slack := lzf.CompressBound(int(units.PageSize))
	if got := e.capacity(100); got != 8+100*defaultPageEstimate*9/8+slack {
		t.Fatalf("unseeded capacity = %d", got)
	}
	// 1,401 bytes per entry rounds up, and is taken in one step.
	e.observe(100, 8+100*1400+1)
	if per := e.per.Load(); per != 1401 {
		t.Fatalf("estimate after one observation = %d, want 1401", per)
	}
	if got := e.capacity(100); got != 8+140100+140100/8+slack {
		t.Fatalf("capacity = %d", got)
	}
	// Raw-heavy snapshots: up at once, but never past the clamp.
	e.observe(10, 8+10*(10+int(units.PageSize)))
	per := int(e.per.Load())
	if per != 10+int(units.PageSize) {
		t.Fatalf("estimate did not rise to a raw entry at once: %d", per)
	}
	e.observe(1, 8+2*(10+int(units.PageSize)))
	if bound := 10 + int(units.PageSize) + int(units.PageSize)/32 + 2; int(e.per.Load()) != bound {
		t.Fatalf("estimate %d, want the clamp %d", e.per.Load(), bound)
	}
	// A zero-page-heavy snapshot moves it a quarter of the way down;
	// many pull it to the floor, or the 3 bytes above it that rounding
	// up keeps.
	old := e.per.Load()
	e.observe(1000, 8+1000*10)
	if got, want := e.per.Load(), (3*old+10+3)/4; got != want {
		t.Fatalf("estimate after one small observation = %d, want %d", got, want)
	}
	for i := 0; i < 100; i++ {
		e.observe(1000, 8+1000*10)
	}
	if per := e.per.Load(); per < 10 || per > 13 {
		t.Fatalf("estimate did not fall to the floor: %d", per)
	}
	// Diffs do not teach the whole-image estimate.
	im := mixImage(t, 64, "c")
	before := imageEstimate.per.Load()
	for range 4 {
		epoch := im.NextEpoch()
		if err := im.Write(3, bytes.Repeat([]byte{9}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := EncodeDirtySince(im, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if after := imageEstimate.per.Load(); after != before {
		t.Fatalf("diffs moved the whole-image estimate from %d to %d", before, after)
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

// BenchmarkEncodeAll measures the snapshot encoder on a mixed 16 MiB
// image; -cpu sets its shard count.
func BenchmarkEncodeAll(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeAll(im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDiff measures the differential encode a detach ships:
// the pages dirtied since the last upload of a 16 MiB image, a desktop's
// mix of four compressible pages (zero runs, repeated tokens,
// pointer-like words and a little unique data) to one incompressible.
// 160 pages is about a detach of the benchmark of record's vdi-cycle;
// 1600 shows how the shards scale once there is more to share out.
// -cpu sets the shard count.
func BenchmarkEncodeDiff(b *testing.B) {
	r := rng.New(12)
	vocab := make([][]byte, 64)
	for i := range vocab {
		vocab[i] = make([]byte, 4+r.Intn(9))
		for j := range vocab[i] {
			vocab[i][j] = byte(r.Uint64())
		}
	}
	fill := func(p []byte) {
		clear(p)
		ptr := 0x00007f0000000000 | r.Uint64()&0xffffff0000
		for off := 0; off < len(p); {
			rest := p[off:]
			n := 64 + r.Intn(321) // a zero run
			switch roll := r.Intn(100); {
			case roll < 33:
			case roll < 65: // one token repeated
				tok := vocab[r.Intn(len(vocab))]
				n = len(tok) * (4 + r.Intn(21))
				for i := 0; i < n && i < len(rest); i++ {
					rest[i] = tok[i%len(tok)]
				}
			case roll < 85: // pointer-like words
				n = 8 * (4 + r.Intn(21))
				for i := 0; i+8 <= n && i+8 <= len(rest); i += 8 {
					binary.LittleEndian.PutUint64(rest[i:], ptr|uint64(uint16(r.Uint64())))
				}
			default: // unique bytes
				n = min(8+r.Intn(41), len(rest))
				for i := range n {
					rest[i] = byte(r.Uint64())
				}
			}
			off += n
		}
	}
	for _, dirty := range []int{160, 1600} {
		b.Run(fmt.Sprintf("pages=%d", dirty), func(b *testing.B) {
			im := NewImage(16 * units.MiB)
			epoch := im.NextEpoch()
			stride := int(im.NumPages()) / dirty
			page := make([]byte, units.PageSize)
			for i := range dirty {
				if i%5 == 4 {
					for j := range page {
						page[j] = byte(r.Uint64())
					}
				} else {
					fill(page)
				}
				if err := im.Write(PFN(i*stride), page); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, _, err := EncodeDirtySince(im, epoch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dirty), "ns/page")
		})
	}
}

func imagesEqual(t *testing.T, a, b *Image) {
	t.Helper()
	ea, _, err := EncodeAll(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := EncodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("images differ after round trip")
	}
}

func TestSplitSnapshotRefsMatchesSplitSnapshot(t *testing.T) {
	im := mixImage(t, 128, "zcrcc")
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxChunk := range []int{0, 1 << 14, 1 << 16, 1 << 30} {
		chunks, err := SplitSnapshot(snap, maxChunk)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := SplitSnapshotRefs(snap, maxChunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != len(refs) {
			t.Fatalf("maxChunk=%d: %d chunks vs %d refs", maxChunk, len(chunks), len(refs))
		}
		back := NewImage(im.Alloc())
		for i := range refs {
			if got := refs[i].AppendTo(nil); !bytes.Equal(got, chunks[i]) {
				t.Fatalf("maxChunk=%d chunk %d: ref bytes differ", maxChunk, i)
			}
			if refs[i].Len() != len(chunks[i]) {
				t.Fatalf("chunk %d: Len %d != %d", i, refs[i].Len(), len(chunks[i]))
			}
			// Every chunk must be independently decodable.
			if err := ApplySnapshot(back, chunks[i]); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
		}
		imagesEqual(t, im, back)
	}
}

func TestSplitSnapshotRefsEmpty(t *testing.T) {
	im := NewImage(units.PagesBytes(4))
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := SplitSnapshotRefs(snap, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Fatalf("empty snapshot: %d chunks", len(refs))
	}
	back := NewImage(im.Alloc())
	if err := ApplySnapshot(back, refs[0].AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
}
