package memserver

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// serverImageBytes canonicalises a VM's server-side image for comparison:
// the full-snapshot encoding is deterministic (sorted PFNs, deterministic
// per-page tokens), so equal bytes means equal images.
func serverImageBytes(t *testing.T, s *Server, id pagestore.VMID) []byte {
	t.Helper()
	im, err := s.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rawSnapshot builds a snapshot of fully random (incompressible) pages,
// so chunk budgets translate predictably into multiple chunks.
func rawSnapshot(t *testing.T, alloc units.Bytes, seed uint64, pages int) []byte {
	t.Helper()
	r := rng.New(seed)
	im := pagestore.NewImage(alloc)
	p := make([]byte, units.PageSize)
	for i := 0; i < pages; i++ {
		for j := range p {
			p[j] = byte(r.Uint64())
		}
		if err := im.Write(pagestore.PFN(i), p); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// stageChunk sends chunk seq of staged upload uploadID of VM id, of the
// kind the frame type names (an image's allocation is alloc).
func stageChunk(c *ClientPool, kind byte, id pagestore.VMID, uploadID uint64, seq int, alloc units.Bytes, chunk []byte) error {
	h := putHead{kind: kind, id: id, uploadID: uploadID, seq: uint32(seq), alloc: alloc}
	return c.putChunk(h, pagestore.ChunkRef{Body: chunk})
}

// TestUploadIdempotency exercises every retry-shaped replay the protocol
// promises to tolerate: a re-sent chunk 0, a duplicate chunk, a
// re-Commit, and a late chunk landing after its upload committed.
func TestUploadIdempotency(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	snap := rawSnapshot(t, 4*units.MiB, 17, 40)
	chunks, err := pagestore.SplitSnapshot(snap, 4*int(units.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 3 {
		t.Fatalf("want >= 3 chunks for the test, got %d", len(chunks))
	}
	const id, uploadID = 9, 777
	stage := func(seq int) error { return stageChunk(c, msgPutImage, id, uploadID, seq, 4*units.MiB, chunks[seq]) }
	for seq := range 2 {
		if err := stage(seq); err != nil {
			t.Fatal(err)
		}
	}
	// A re-sent chunk 0 re-opens nothing: the staged chunks stay, so
	// finish after it without resending chunk 1.
	if err := stage(0); err != nil {
		t.Fatal(err)
	}
	for seq := 2; seq < len(chunks); seq++ {
		if err := stage(seq); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate chunk overwrites with identical bytes.
	if err := stage(1); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCommit(id, uploadID, uint32(len(chunks))); err != nil {
		t.Fatal(err)
	}
	want := serverImageBytes(t, srv, id)

	// A replayed commit (lost reply) acknowledges without re-applying.
	uploadedBefore := srv.StatsSnapshot().PagesUploaded
	if err := c.PutCommit(id, uploadID, uint32(len(chunks))); err != nil {
		t.Fatalf("re-commit: %v", err)
	}
	if got := srv.StatsSnapshot().PagesUploaded; got != uploadedBefore {
		t.Fatalf("re-commit re-applied: pages uploaded %d -> %d", uploadedBefore, got)
	}
	// A straggler chunk retry after commit is an acknowledged no-op.
	if err := stage(2); err != nil {
		t.Fatalf("late chunk after commit: %v", err)
	}
	if got := serverImageBytes(t, srv, id); !bytes.Equal(got, want) {
		t.Fatal("image changed after replayed frames")
	}
}

// TestUploadErrors covers the refusals: commit before chunk 0, a later
// chunk before chunk 0, commit with a missing chunk (upload stays open
// for the resend), and a diff's chunk 0 for an unknown VM.
func TestUploadErrors(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	if err := c.PutCommit(3, 1, 1); err == nil {
		t.Error("commit before chunk 0 accepted")
	}
	if err := stageChunk(c, msgPutImage, 3, 1, 1, 4*units.MiB, []byte("OAPS\x00\x00\x00\x00")); err == nil {
		t.Error("chunk before chunk 0 accepted")
	}
	if err := stageChunk(c, msgPutDiff, 3, 1, 0, 0, []byte("OAPS\x00\x00\x00\x00")); err == nil {
		t.Error("diff open for unknown VM accepted")
	}

	// Raw pages, so the snapshot splits: chunk 0 opens, chunk 1 is held.
	snap := rawSnapshot(t, 4*units.MiB, 19, 30)
	chunks, err := pagestore.SplitSnapshot(snap, 4*int(units.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("want >= 2 chunks for the test, got %d", len(chunks))
	}
	const id, uploadID = 4, 42
	stage := func(seq int) error { return stageChunk(c, msgPutImage, id, uploadID, seq, 4*units.MiB, chunks[seq]) }
	for seq := range chunks {
		if seq == 1 { // hold back chunk 1
			continue
		}
		if err := stage(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutCommit(id, uploadID, uint32(len(chunks))); err == nil {
		t.Fatal("commit with a missing chunk accepted")
	}
	if _, err := srv.Store().Get(id); err == nil {
		t.Fatal("failed commit made an image visible")
	}
	// The staging upload survived the refused commit: resend and retry.
	if err := stage(1); err != nil {
		t.Fatal(err)
	}
	if err := c.PutCommit(id, uploadID, uint32(len(chunks))); err != nil {
		t.Fatalf("commit after resend: %v", err)
	}
	if _, err := srv.Store().Get(id); err != nil {
		t.Fatalf("committed image missing: %v", err)
	}
}

// TestAbandonedUploadLeavesImageIntact is the crash-atomicity property:
// an upload that never commits — and a newer upload that replaces it —
// leave the previous image bytes exactly as they were.
func TestAbandonedUploadLeavesImageIntact(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	src, snap := makeSnapshot(t, 8*units.MiB, 23, 80)
	const id = 6
	if err := c.PutImage(id, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	want := serverImageBytes(t, srv, id)

	// A new version of the image, half-uploaded and abandoned.
	pattern := bytes.Repeat([]byte{0x99}, int(units.PageSize))
	for pfn := pagestore.PFN(0); pfn < 80; pfn++ {
		if err := src.Write(pfn, pattern); err != nil {
			t.Fatal(err)
		}
	}
	snap2, _, err := pagestore.EncodeAll(src)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := pagestore.SplitSnapshot(snap2, 8*int(units.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < len(chunks)/2; seq++ {
		if err := stageChunk(c, msgPutImage, id, 901, seq, 8*units.MiB, chunks[seq]); err != nil {
			t.Fatal(err)
		}
	}
	// Client "crashes" here: no commit. Reads still serve the old image.
	if got := serverImageBytes(t, srv, id); !bytes.Equal(got, want) {
		t.Fatal("abandoned upload perturbed the live image")
	}
	page, err := c.GetPage(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(page, pattern) {
		t.Fatal("read served a page from the uncommitted upload")
	}

	// A retry under a fresh upload id replaces the stale staging state
	// and commits cleanly.
	for seq := range chunks {
		if err := stageChunk(c, msgPutImage, id, 902, seq, 8*units.MiB, chunks[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutCommit(id, 902, uint32(len(chunks))); err != nil {
		t.Fatal(err)
	}
	page, err = c.GetPage(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, pattern) {
		t.Fatal("committed upload not visible")
	}
}

// TestStreamDiffOutOfRangeRejectedAtomically: a diff containing a PFN
// beyond the image's allocation is refused at commit validation, before
// any in-range page of the same upload lands.
func TestStreamDiffOutOfRangeRejectedAtomically(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	_, snap := makeSnapshot(t, 1*units.MiB, 29, 10)
	const id = 8
	if err := c.PutImage(id, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	want := serverImageBytes(t, srv, id)

	// Build a diff from a larger image: in-range writes plus one beyond
	// the server image's allocation.
	big := pagestore.NewImage(4 * units.MiB)
	pattern := bytes.Repeat([]byte{0x41}, int(units.PageSize))
	for _, pfn := range []pagestore.PFN{0, 1, 1000} {
		if err := big.Write(pfn, pattern); err != nil {
			t.Fatal(err)
		}
	}
	diff, _, err := pagestore.EncodeAll(big)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := pagestore.SplitSnapshot(diff, 2*int(units.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for seq := range chunks {
		if err := stageChunk(c, msgPutDiff, id, 55, seq, 0, chunks[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutCommit(id, 55, uint32(len(chunks))); err == nil {
		t.Fatal("out-of-range diff committed")
	}
	if got := serverImageBytes(t, srv, id); !bytes.Equal(got, want) {
		t.Fatal("refused diff modified the live image")
	}
}

// startCountingServer is startServer with the server's metrics on a
// registry of their own, and requests counts the request frames it has
// handled: every frame after the handshake is one op, whatever its label.
func startCountingServer(t *testing.T) (srv *Server, addr string, requests func() float64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	srv = NewServer(testSecret, t.Logf)
	srv.SetMetricsRegistry(reg)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, bound.String(), func() float64 { return opsTotal(t, reg) }
}

// opsTotal sums oasis_memserver_ops_total over every op label in reg.
func opsTotal(t *testing.T, reg *telemetry.Registry) float64 {
	t.Helper()
	var text strings.Builder
	if err := reg.WriteText(&text, "oasis_memserver_ops_total"); err != nil {
		t.Fatal(err)
	}
	var n float64
	for _, line := range strings.Fields(text.String()) {
		if v, err := strconv.ParseFloat(line, 64); err == nil {
			n += v
		}
	}
	return n
}

// TestOneChunkStreamIsOneFrame: a diff that fits one chunk streams as a
// single frame the server applies at once — no open, no commit — and
// lands as a staged one would.
func TestOneChunkStreamIsOneFrame(t *testing.T) {
	srv, addr, requests := startCountingServer(t)
	c := dial(t, addr)
	src, snap := makeSnapshot(t, 4*units.MiB, 37, 40)
	if err := srv.InstallImage(5, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	diff, want := dirtied(t, src, 10)
	if len(diff) > DefaultChunkBytes {
		t.Fatalf("a %d-byte diff is more than one chunk", len(diff))
	}
	before := requests()
	if err := c.StreamDiff(5, diff, PutOptions{Streams: 4}); err != nil {
		t.Fatal(err)
	}
	if n := requests() - before; n != 1 {
		t.Errorf("a one-chunk StreamDiff sent %v request frames, want 1", n)
	}
	if !bytes.Equal(serverImageBytes(t, srv, 5), want) {
		t.Fatal("the one-frame diff did not land")
	}
}

// TestNChunkStreamIsNPlusOneFrames: an image of n chunks streams as its
// n chunk frames and one commit — chunk 0 opens the upload, so no frame
// of its own does.
func TestNChunkStreamIsNPlusOneFrames(t *testing.T) {
	srv, addr, requests := startCountingServer(t)
	c := dial(t, addr)
	snap := rawSnapshot(t, 4*units.MiB, 38, 40)
	const chunkBytes = 8 * int(units.PageSize)
	chunks, err := pagestore.SplitSnapshot(snap, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 3 {
		t.Fatalf("want >= 3 chunks for the test, got %d", len(chunks))
	}
	before := requests()
	if err := c.StreamImage(7, 4*units.MiB, snap, PutOptions{Streams: 2, ChunkBytes: chunkBytes}); err != nil {
		t.Fatal(err)
	}
	if n, want := requests()-before, float64(len(chunks)+1); n != want {
		t.Errorf("a %d-chunk StreamImage sent %v request frames, want %v", len(chunks), n, want)
	}
	if !bytes.Equal(serverImageBytes(t, srv, 7), snap) {
		t.Fatal("the streamed image is not the snapshot")
	}
}

// TestLargestChunkFillsOneFrame: the chunk PutImage and PutDiff use,
// and any larger ChunkBytes once lowered, is the most one image frame
// carries with its head and tag, so a snapshot past it streams instead
// of overflowing the frame ceiling.
func TestLargestChunkFillsOneFrame(t *testing.T) {
	for _, asked := range []int{maxChunkBytes, maxChunkBytes + 1, math.MaxInt} {
		got := PutOptions{ChunkBytes: asked}.withDefaults().ChunkBytes
		if frame := 24 + got + macLen; got != maxChunkBytes || frame != maxFrame {
			t.Errorf("ChunkBytes %d: a chunk of %d bytes makes a %d-byte frame, want %d", asked, got, frame, maxFrame)
		}
	}
}
