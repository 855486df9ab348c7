package memserver

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"oasis/internal/pagestore"
)

// Server side of the upload protocol (see proto.go for the framing and
// DESIGN.md §10 for the crash-atomicity argument). A whole snapshot
// (upload id 0) is installed or applied as it arrives, like the
// host-local InstallImage and ApplyDiff. The life of a staged upload:
//
//  1. Chunk 0 opens a staging entry keyed by VMID. A full-image upload
//     also opens a private staging image. The VM's live image is not
//     touched.
//  2. The other chunks arrive in any order and over any mix of
//     connections, each kept in the buffer its frame was read into. A
//     full-image chunk is checked and adopted by the staging image as it
//     arrives, overlapping the wire transfer of later chunks. A diff
//     chunk is only held (a diff must not touch the live image before
//     commit).
//  3. PutCommit waits for in-flight chunks, checks every chunk 0..n-1
//     arrived, and only then makes the result visible: the staging
//     image is swapped into the store; a diff is fully validated
//     (every entry's token stream, length and bounds) before the first
//     slot of the live image changes, so application cannot fail half
//     way.
//
// A failure anywhere before the commit's final swap leaves the previous
// image intact — the degradation path (§7) then serves the stale-but-
// consistent snapshot exactly as if the upload had never started.

// pendingUpload is one VM's staged, uncommitted upload.
type pendingUpload struct {
	uploadID uint64
	kind     byte // msgPutImage or msgPutDiff
	// chunks holds the staged chunks by seq: a diff's until commit, a
	// full image's as adopted by staging, where nil marks a seq a
	// connection claimed and is checking (a chunk that arrived lies in
	// its frame's buffer, so none is nil).
	chunks map[uint32][]byte
	// staging receives full-image chunks as they arrive; the store swap
	// at commit is what makes it visible.
	staging *pagestore.Image
	// inflight counts chunks on their way into staging right now;
	// commit waits for it after sealing.
	inflight sync.WaitGroup
	// sealed stops new chunks once a commit began; a failed
	// commit (missing chunks) unseals so the client can re-send.
	sealed bool
}

// put applies one PutImage or PutDiff frame's chunk: a whole snapshot
// at once (upload id 0), or one chunk of a staged upload.
func (s *Server) put(h putHead, chunk []byte) error {
	switch {
	case h.uploadID != 0:
		return s.putChunk(h, chunk)
	case h.kind == msgPutImage:
		return s.InstallImage(h.id, h.alloc, chunk)
	default:
		return s.ApplyDiff(h.id, chunk)
	}
}

// putChunk stages one chunk of a staged upload. Chunk 0 opens the
// upload, replacing a stale pending one for the VM (collecting chunks
// abandoned by a crashed client); any other chunk joins only the open
// upload with its id. Duplicate sequence numbers — chunk 0 included —
// are acknowledged without re-applying (the retried frame carries
// identical bytes), and so are chunks of the VM's last committed upload.
// The image keeps the chunk where it lies: the frame's own buffer.
func (s *Server) putChunk(h putHead, chunk []byte) error {
	id, uploadID, seq := h.id, h.uploadID, h.seq
	if seq == 0 && h.kind == msgPutDiff {
		// A diff needs an existing image to land on; refuse at open so
		// the client learns before shipping the rest.
		if _, err := s.store.Get(id); err != nil {
			return err
		}
	}
	s.upMu.Lock()
	p := s.uploads[id]
	if p == nil || p.uploadID != uploadID || p.kind != h.kind {
		if s.committed[id] == uploadID {
			s.upMu.Unlock()
			return nil // late retry of a chunk whose upload already committed
		}
		if seq != 0 {
			s.upMu.Unlock()
			return fmt.Errorf("no open upload %d for vm %04d (chunk 0 opens it)", uploadID, id)
		}
		p = &pendingUpload{uploadID: uploadID, kind: h.kind, chunks: make(map[uint32][]byte)}
		if h.kind == msgPutImage {
			p.staging = pagestore.NewImage(h.alloc)
		}
		s.uploads[id] = p
	}
	if _, dup := p.chunks[seq]; dup {
		s.upMu.Unlock()
		return nil // duplicate: already staged or decoding right now
	}
	if p.kind == msgPutDiff {
		p.chunks[seq] = chunk
		s.upMu.Unlock()
		return nil
	}
	if p.sealed {
		s.upMu.Unlock()
		return fmt.Errorf("upload %d for vm %04d is committing", uploadID, id)
	}
	// Full image: claim the seq and check the chunk into the staging
	// image outside the lock — arrival-time application is what overlaps
	// validation with the wire.
	p.chunks[seq] = nil
	p.inflight.Add(1)
	staging := p.staging
	s.upMu.Unlock()

	_, err := s.adopt(staging, chunk)

	s.upMu.Lock()
	if cur := s.uploads[id]; cur == p {
		if err != nil {
			delete(p.chunks, seq) // un-claim so a re-send can retry
		} else {
			p.chunks[seq] = chunk
		}
	}
	s.upMu.Unlock()
	p.inflight.Done()
	if err != nil {
		return fmt.Errorf("chunk %d of upload %d for vm %04d: %w", seq, uploadID, id, err)
	}
	return nil
}

// putCommit validates and applies a staged upload atomically. On any
// error the staging entry survives (the client may re-send missing
// chunks and retry) and the VM's live image is untouched.
func (s *Server) putCommit(id pagestore.VMID, uploadID uint64, n uint32) error {
	s.upMu.Lock()
	p := s.uploads[id]
	if p == nil || p.uploadID != uploadID {
		last, ok := s.committed[id]
		s.upMu.Unlock()
		if ok && last == uploadID {
			return nil // retried Commit after a lost reply: already applied
		}
		return fmt.Errorf("no open upload %d for vm %04d", uploadID, id)
	}

	start := time.Now()
	if p.kind == msgPutImage {
		// Seal against new decodes and wait out the in-flight ones
		// before checking coverage. The store swap below is the commit
		// point.
		p.sealed = true
		s.upMu.Unlock()
		p.inflight.Wait()
		s.upMu.Lock()
		if cur := s.uploads[id]; cur != p {
			s.upMu.Unlock()
			return fmt.Errorf("upload %d for vm %04d superseded during commit", uploadID, id)
		}
	}
	chunks, err := p.inOrder(n)
	if err != nil {
		p.sealed = false // let the client re-send what is missing
		s.upMu.Unlock()
		return err
	}
	s.upMu.Unlock()
	var pages int64
	if p.kind == msgPutImage {
		s.store.Put(id, p.staging)
		pages = p.staging.TouchedPages()
	} else if pages, err = s.applyDiff(id, chunks); err != nil {
		return err
	}
	s.tel.applySecs.Observe(sinceSeconds(start))
	s.pagesUploaded.Add(pages)

	s.upMu.Lock()
	if cur := s.uploads[id]; cur == p {
		delete(s.uploads, id)
	}
	s.committed[id] = uploadID
	s.upMu.Unlock()
	return s.stored(id)
}

// inOrder returns chunks 0..n-1, checking that every one finished
// staging and that no other was staged. Callers hold s.upMu.
func (p *pendingUpload) inOrder(n uint32) ([][]byte, error) {
	chunks := make([][]byte, n)
	for i := range chunks {
		if chunks[i] = p.chunks[uint32(i)]; chunks[i] == nil {
			return nil, fmt.Errorf("upload %d missing chunk %d/%d", p.uploadID, i, n)
		}
	}
	if uint32(len(p.chunks)) != n {
		return nil, fmt.Errorf("upload %d has %d chunks, commit says %d", p.uploadID, len(p.chunks), n)
	}
	return chunks, nil
}

// applyDiff validates every diff chunk completely — framing, token
// streams, and PFN bounds — before the first slot changes, so the adopt
// pass cannot fail part way through the live image, and adopts them
// together, so no reader sees the diff half applied. The staged chunks
// lie in buffers the server owns: the image keeps them as they are.
func (s *Server) applyDiff(id pagestore.VMID, chunks [][]byte) (int64, error) {
	im, err := s.store.Get(id)
	if err != nil {
		return 0, err
	}
	staged := make([]*pagestore.Staged, len(chunks))
	if err := forEachChunk(chunks, func(i int) (err error) {
		staged[i], err = im.Stage(chunks[i])
		return err
	}); err != nil {
		return 0, err
	}
	return s.adoptStaged(im, staged...), nil
}

// forEachChunk runs fn(i) for every chunk index with bounded
// parallelism. Chunks are independent (self-contained snapshots), so
// order does not matter.
func forEachChunk(chunks [][]byte, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), len(chunks))
	if workers <= 1 {
		for i := range chunks {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(chunks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := range chunks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
