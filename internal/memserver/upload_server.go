package memserver

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Server side of the chunked streaming upload protocol (see proto.go for
// the framing and DESIGN.md §10 for the crash-atomicity argument). The
// life of an upload:
//
//  1. PutBegin opens a staging entry keyed by VMID. A full-image upload
//     also opens a private staging image. The VM's live image is not
//     touched.
//  2. PutChunks arrive in any order and over any mix of connections.
//     Either kind is copied once, into the buffer the image will keep
//     (the receive buffer is reused). A full-image chunk is checked and
//     adopted by the staging image as it arrives, overlapping the wire
//     transfer of later chunks. A diff chunk is only held (a diff must
//     not touch the live image before commit).
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
	kind     byte
	alloc    units.Bytes
	// seqs tracks staged chunk numbers. For a full image, true means
	// the staging image adopted the chunk and false means a connection
	// claimed the seq and is checking it; for a diff every staged seq is
	// true.
	seqs map[uint32]bool
	// staging receives full-image chunks as they arrive; the store swap
	// at commit is what makes it visible.
	staging *pagestore.Image
	// chunks holds diff chunks (owned copies) until commit.
	chunks map[uint32][]byte
	// inflight counts chunks on their way into staging right now;
	// commit waits for it after sealing.
	inflight sync.WaitGroup
	// sealed stops new chunks once a commit began; a failed
	// commit (missing chunks) unseals so the client can re-send.
	sealed bool
}

// putBegin opens (or idempotently re-opens) a staging upload. A different
// upload id replaces any stale pending upload for the VM, collecting
// chunks abandoned by a crashed client.
func (s *Server) putBegin(id pagestore.VMID, uploadID uint64, kind byte, alloc uint64) error {
	if kind == putKindDiff {
		// A diff needs an existing image to land on; reject at begin so
		// the client learns before shipping chunks.
		if _, err := s.store.Get(id); err != nil {
			return err
		}
	}
	p := &pendingUpload{
		uploadID: uploadID,
		kind:     kind,
		alloc:    units.Bytes(alloc),
		seqs:     make(map[uint32]bool),
	}
	if kind == putKindImage {
		p.staging = pagestore.NewImage(units.Bytes(alloc))
	} else {
		p.chunks = make(map[uint32][]byte)
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if cur := s.uploads[id]; cur != nil && cur.uploadID == uploadID {
		return nil // retried Begin: keep already-staged chunks
	}
	s.uploads[id] = p
	return nil
}

// putChunk stages one chunk. Duplicate sequence numbers are acknowledged
// without re-applying (the retried frame carries identical bytes);
// chunks for an already-committed upload id are acknowledged as no-ops.
// The chunk slice is only borrowed: what is kept is a copy — the caller
// may reuse the buffer.
func (s *Server) putChunk(id pagestore.VMID, uploadID uint64, seq uint32, chunk []byte) error {
	s.upMu.Lock()
	p := s.uploads[id]
	if p == nil || p.uploadID != uploadID {
		committed := s.committed[id] == uploadID
		s.upMu.Unlock()
		if committed {
			return nil // late retry of a chunk whose upload already committed
		}
		return fmt.Errorf("no open upload %d for vm %04d (PutBegin first)", uploadID, id)
	}
	if _, dup := p.seqs[seq]; dup {
		s.upMu.Unlock()
		return nil // duplicate: already staged or decoding right now
	}
	if len(p.seqs) >= maxUploadChunks {
		s.upMu.Unlock()
		return fmt.Errorf("upload %d for vm %04d exceeds %d chunks", uploadID, id, maxUploadChunks)
	}
	if p.kind == putKindDiff {
		p.chunks[seq] = append([]byte(nil), chunk...)
		p.seqs[seq] = true
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
	p.seqs[seq] = false
	p.inflight.Add(1)
	staging := p.staging
	s.upMu.Unlock()

	_, err := s.adopt(staging, chunk)

	s.upMu.Lock()
	if cur := s.uploads[id]; cur == p {
		if err != nil {
			delete(p.seqs, seq) // un-claim so a re-send can retry
		} else {
			p.seqs[seq] = true
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
	var pages int64
	switch p.kind {
	case putKindImage:
		// Seal against new decodes, wait out the in-flight ones, then
		// verify coverage. The store swap below is the commit point.
		p.sealed = true
		s.upMu.Unlock()
		p.inflight.Wait()
		s.upMu.Lock()
		if cur := s.uploads[id]; cur != p {
			s.upMu.Unlock()
			return fmt.Errorf("upload %d for vm %04d superseded during commit", uploadID, id)
		}
		if err := p.verifySeqs(n); err != nil {
			p.sealed = false // let the client re-send what is missing
			s.upMu.Unlock()
			return err
		}
		s.upMu.Unlock()
		s.store.Put(id, p.staging)
		pages = p.staging.TouchedPages()

	case putKindDiff:
		chunks := make([][]byte, n)
		for i := uint32(0); i < n; i++ {
			c, ok := p.chunks[i]
			if !ok {
				s.upMu.Unlock()
				return fmt.Errorf("upload %d for vm %04d missing chunk %d/%d", uploadID, id, i, n)
			}
			chunks[i] = c
		}
		if uint32(len(p.chunks)) != n {
			s.upMu.Unlock()
			return fmt.Errorf("upload %d for vm %04d has %d chunks, commit says %d", uploadID, id, len(p.chunks), n)
		}
		s.upMu.Unlock()
		var err error
		pages, err = s.applyDiff(id, chunks)
		if err != nil {
			return err
		}

	default:
		s.upMu.Unlock()
		return fmt.Errorf("unknown upload kind %d", p.kind)
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

// verifySeqs checks chunks 0..n-1 all finished staging. Callers hold
// s.upMu.
func (p *pendingUpload) verifySeqs(n uint32) error {
	for i := uint32(0); i < n; i++ {
		done, ok := p.seqs[i]
		if !ok || !done {
			return fmt.Errorf("upload %d missing chunk %d/%d", p.uploadID, i, n)
		}
	}
	if uint32(len(p.seqs)) != n {
		return fmt.Errorf("upload %d has %d chunks, commit says %d", p.uploadID, len(p.seqs), n)
	}
	return nil
}

// applyDiff validates every diff chunk completely — framing, token
// streams, and PFN bounds — before the first slot changes, so the adopt
// pass cannot fail part way through the live image, and adopts them
// together, so no reader sees the diff half applied. The staged chunks
// are already the server's own copies: the image keeps them as they are.
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
