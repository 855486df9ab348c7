package memserver

import (
	"bytes"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
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

// TestUploadIdempotency exercises every retry-shaped replay the protocol
// promises to tolerate: re-Begin, duplicate chunk, re-Commit, and a late
// chunk landing after its upload committed.
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
	if err := c.PutBegin(id, uploadID, putKindImage, 4*units.MiB); err != nil {
		t.Fatal(err)
	}
	if err := c.PutChunkRef(id, uploadID, 0, pagestore.ChunkRef{Body: chunks[0]}); err != nil {
		t.Fatal(err)
	}
	// Re-Begin keeps staged chunks; finish after it without resending 0.
	if err := c.PutBegin(id, uploadID, putKindImage, 4*units.MiB); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq < len(chunks); seq++ {
		if err := c.PutChunkRef(id, uploadID, uint32(seq), pagestore.ChunkRef{Body: chunks[seq]}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate chunk overwrites with identical bytes.
	if err := c.PutChunkRef(id, uploadID, 1, pagestore.ChunkRef{Body: chunks[1]}); err != nil {
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
	if err := c.PutChunkRef(id, uploadID, 2, pagestore.ChunkRef{Body: chunks[2]}); err != nil {
		t.Fatalf("late chunk after commit: %v", err)
	}
	if got := serverImageBytes(t, srv, id); !bytes.Equal(got, want) {
		t.Fatal("image changed after replayed frames")
	}
}

// TestUploadErrors covers the refusals: commit-before-begin, chunk
// without begin, commit with a missing chunk (upload stays open for the
// resend), and a diff begin against an unknown VM.
func TestUploadErrors(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	if err := c.PutCommit(3, 1, 1); err == nil {
		t.Error("commit before begin accepted")
	}
	if err := c.PutChunkRef(3, 1, 0, pagestore.ChunkRef{Body: []byte("OAPS\x00\x00\x00\x00")}); err == nil {
		t.Error("chunk before begin accepted")
	}
	if err := c.PutBegin(3, 1, putKindDiff, 0); err == nil {
		t.Error("diff begin for unknown VM accepted")
	}

	_, snap := makeSnapshot(t, 4*units.MiB, 19, 30)
	chunks, err := pagestore.SplitSnapshot(snap, 4*int(units.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	const id, uploadID = 4, 42
	if err := c.PutBegin(id, uploadID, putKindImage, 4*units.MiB); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq < len(chunks); seq++ { // hold back chunk 0
		if err := c.PutChunkRef(id, uploadID, uint32(seq), pagestore.ChunkRef{Body: chunks[seq]}); err != nil {
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
	if err := c.PutChunkRef(id, uploadID, 0, pagestore.ChunkRef{Body: chunks[0]}); err != nil {
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
	if err := c.PutBegin(id, 901, putKindImage, 8*units.MiB); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < len(chunks)/2; seq++ {
		if err := c.PutChunkRef(id, 901, uint32(seq), pagestore.ChunkRef{Body: chunks[seq]}); err != nil {
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
	if err := c.PutBegin(id, 902, putKindImage, 8*units.MiB); err != nil {
		t.Fatal(err)
	}
	for seq := range chunks {
		if err := c.PutChunkRef(id, 902, uint32(seq), pagestore.ChunkRef{Body: chunks[seq]}); err != nil {
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
	if err := c.PutBegin(id, 55, putKindDiff, 0); err != nil {
		t.Fatal(err)
	}
	for seq := range chunks {
		if err := c.PutChunkRef(id, 55, uint32(seq), pagestore.ChunkRef{Body: chunks[seq]}); err != nil {
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
