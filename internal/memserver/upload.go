package memserver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Client side of the upload protocol, one function behind PutImage,
// PutDiff, StreamImage and StreamDiff. A snapshot that fits one chunk
// goes as a single frame the server applies at once. A larger one is
// split into self-contained chunks: chunk 0 opens a staged upload, the
// rest follow up to Streams at a time, and a commit applies them. Over a
// ClientPool the concurrent chunks land on different lanes, overlapping
// framing, wire transfer and server-side staging the way the prefetch
// path overlaps batch fetches; over a single Client they queue on the
// one connection. Either way the server-side result is bit-for-bit the
// same — chunking is a pure latency and frame-size matter.

// DefaultChunkBytes is the streaming-upload chunk budget. 4 MiB keeps a
// chunk well under the frame ceiling while leaving enough chunks to keep
// every lane busy for the multi-hundred-MiB images consolidation ships.
const DefaultChunkBytes = 4 << 20

// maxChunkBytes is the largest chunk one frame carries: the frame
// ceiling less an image frame's head and the MAC trailer.
const maxChunkBytes = maxFrame - 24 - macLen

// chunkRetries bounds uploader-level re-issues of one staged chunk
// beyond the retry budget the exchanger gives each attempt.
const chunkRetries = 2

// PutOptions tunes a streaming upload.
type PutOptions struct {
	// Streams is the number of chunks kept in flight concurrently.
	// <= 1 streams sequentially (same bytes, same result, no overlap).
	Streams int
	// ChunkBytes bounds one chunk's encoded size. <= 0 takes
	// DefaultChunkBytes; values too small for a single raw page are
	// raised to the minimum by pagestore.SplitSnapshot, and values
	// over what one frame carries are lowered to that.
	ChunkBytes int
}

func (o PutOptions) withDefaults() PutOptions {
	o.Streams = max(o.Streams, 1)
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	o.ChunkBytes = min(o.ChunkBytes, maxChunkBytes)
	return o
}

// uploadSeq allocates process-unique upload ids. Uniqueness only matters
// per VM per server lifetime (the server keys staging by id and remembers
// the last committed one), so a process-wide counter is plenty. Id 0 is
// never allocated: it marks a whole-snapshot frame.
var uploadSeq atomic.Uint64

// PutImage uploads a full snapshot as a VM's image, replacing any prior
// image for that VMID (so replaying it yields the same image). A
// snapshot one frame carries goes as that frame, its bytes sent without
// an intermediate copy; a larger one streams.
func (o ops) PutImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte) error {
	return o.StreamImage(id, alloc, snapshot, PutOptions{ChunkBytes: maxChunkBytes})
}

// PutDiff applies a differential snapshot to an existing image (§4.3
// differential upload), in frames as PutImage sends. Diffs carry
// absolute page contents, so applying one twice is a no-op.
func (o ops) PutDiff(id pagestore.VMID, snapshot []byte) error {
	return o.StreamDiff(id, snapshot, PutOptions{ChunkBytes: maxChunkBytes})
}

// StreamImage uploads a full snapshot as a VM's image in chunks of
// opts.ChunkBytes. The image becomes visible atomically; a failure
// anywhere leaves the VM's previous image intact.
func (o ops) StreamImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte, opts PutOptions) error {
	return o.upload(putHead{kind: msgPutImage, id: id, alloc: alloc}, snapshot, opts)
}

// StreamDiff uploads a differential snapshot in chunks of
// opts.ChunkBytes; the diff applies to the live image atomically after
// full validation.
func (o ops) StreamDiff(id pagestore.VMID, snapshot []byte, opts PutOptions) error {
	return o.upload(putHead{kind: msgPutDiff, id: id}, snapshot, opts)
}

// upload sends snapshot as h.kind frames: one whole-snapshot frame if it
// fits a chunk, else a staged upload. Chunk references point back into
// the snapshot buffer — no copies; the connection's vectored send
// stitches header and body on the wire.
func (o ops) upload(h putHead, snapshot []byte, opts PutOptions) error {
	opts = opts.withDefaults()
	chunks := []pagestore.ChunkRef{{Body: snapshot}}
	if len(snapshot) > opts.ChunkBytes {
		var err error
		if chunks, err = pagestore.SplitSnapshotRefs(snapshot, opts.ChunkBytes); err != nil {
			return fmt.Errorf("memserver: split snapshot: %w", err)
		}
		if len(chunks) > maxUploadChunks {
			return fmt.Errorf("memserver: snapshot needs %d chunks, limit %d (raise ChunkBytes)", len(chunks), maxUploadChunks)
		}
	}
	tel := o.put
	if tel == nil {
		tel = newPutTel(nil, "")
	}
	if len(chunks) == 1 {
		return o.sendChunk(tel, h, chunks[0])
	}
	h.uploadID = uploadSeq.Add(1)
	if err := o.shipChunks(tel, h, chunks, opts.Streams); err != nil {
		return err
	}
	return o.PutCommit(h.id, h.uploadID, uint32(len(chunks)))
}

// sendChunk ships one chunk and counts it. A staged chunk gets
// chunkRetries re-issues on top of the exchanger's own retries: over a
// pool a re-issue lands on a (likely) different lane, and the server
// acknowledges a duplicate without staging it again. A whole snapshot
// keeps the exchanger's mutating budget alone.
func (o ops) sendChunk(tel *putTel, h putHead, chunk pagestore.ChunkRef) error {
	tel.inflight.Inc()
	defer tel.inflight.Dec()
	reissues := 0
	if h.uploadID != 0 {
		reissues = chunkRetries
	}
	var err error
	for attempt := 0; attempt <= reissues; attempt++ {
		if attempt > 0 {
			tel.retried.Inc()
		}
		if err = o.putChunk(h, chunk); err == nil {
			tel.chunks.Inc()
			return nil
		}
	}
	return err
}

// shipChunks sends every chunk of a staged upload: chunk 0 first, which
// opens the upload, then the rest with up to streams in flight.
func (o ops) shipChunks(tel *putTel, h putHead, chunks []pagestore.ChunkRef, streams int) error {
	send := func(seq int) error {
		h := h
		h.seq = uint32(seq)
		if err := o.sendChunk(tel, h, chunks[seq]); err != nil {
			return fmt.Errorf("memserver: streaming upload: chunk %d/%d: %w", seq, len(chunks), err)
		}
		return nil
	}
	if err := send(0); err != nil {
		return err
	}
	seqs := make(chan int, len(chunks)-1)
	for seq := 1; seq < len(chunks); seq++ {
		seqs <- seq
	}
	close(seqs)
	workers := min(streams, len(chunks)-1)
	errs := make(chan error, workers) // one send at most per worker
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range seqs {
				if err := send(seq); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs // the first error, or nil from the closed, empty channel
}
