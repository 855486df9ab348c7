package memserver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Client side of the chunked streaming upload protocol: split a snapshot
// into self-contained chunks and ship up to Streams of them at once.
// Over a ClientPool the concurrent chunks land on different lanes,
// overlapping framing, wire transfer and server-side staging the way the
// prefetch path overlaps batch fetches; over a single Client they queue
// on the one connection. Either way the server-side result is bit-for-bit
// that of PutImage/PutDiff — streaming is a pure latency optimisation.

// DefaultChunkBytes is the streaming-upload chunk budget. 4 MiB keeps a
// chunk well under the frame ceiling while leaving enough chunks to keep
// every lane busy for the multi-hundred-MiB images consolidation ships.
const DefaultChunkBytes = 4 << 20

// chunkRetries bounds uploader-level re-issues of one chunk beyond the
// retry budget the exchanger gives each attempt.
const chunkRetries = 2

// PutOptions tunes a streaming upload.
type PutOptions struct {
	// Streams is the number of chunks kept in flight concurrently.
	// <= 1 streams sequentially (same bytes, same result, no overlap).
	Streams int
	// ChunkBytes bounds one chunk's encoded size. <= 0 takes
	// DefaultChunkBytes; values too small for a single raw page are
	// raised to the minimum by pagestore.SplitSnapshot.
	ChunkBytes int
}

func (o PutOptions) withDefaults() PutOptions {
	if o.Streams <= 0 {
		o.Streams = 1
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkBytes
	}
	return o
}

// uploadSeq allocates process-unique upload ids. Uniqueness only matters
// per VM per server lifetime (the server keys staging by id and remembers
// the last committed one), so a process-wide counter is plenty.
var uploadSeq atomic.Uint64

// StreamImage uploads a full snapshot as a VM's image through the
// chunked streaming protocol. The image becomes visible atomically at
// commit; a failure anywhere leaves the VM's previous image intact.
func (o ops) StreamImage(id pagestore.VMID, alloc units.Bytes, snapshot []byte, opts PutOptions) error {
	return o.streamUpload(id, putKindImage, alloc, snapshot, opts)
}

// StreamDiff uploads a differential snapshot through the chunked
// streaming protocol; the diff applies to the live image atomically at
// commit after full validation.
func (o ops) StreamDiff(id pagestore.VMID, snapshot []byte, opts PutOptions) error {
	return o.streamUpload(id, putKindDiff, 0, snapshot, opts)
}

func (o ops) streamUpload(id pagestore.VMID, kind byte, alloc units.Bytes, snapshot []byte, opts PutOptions) error {
	opts = opts.withDefaults()
	// Chunk references point back into the snapshot buffer — no copies;
	// the connection's vectored send stitches header+body on the wire.
	chunks, err := pagestore.SplitSnapshotRefs(snapshot, opts.ChunkBytes)
	if err != nil {
		return fmt.Errorf("memserver: split snapshot: %w", err)
	}
	if len(chunks) > maxUploadChunks {
		return fmt.Errorf("memserver: snapshot needs %d chunks, limit %d (raise ChunkBytes)", len(chunks), maxUploadChunks)
	}
	uploadID := uploadSeq.Add(1)
	if err := o.PutBegin(id, uploadID, kind, alloc); err != nil {
		return err
	}
	if err := o.shipChunks(id, uploadID, chunks, opts.Streams); err != nil {
		return err
	}
	return o.PutCommit(id, uploadID, uint32(len(chunks)))
}

// shipChunks sends every chunk, keeping up to streams in flight. Each
// chunk gets uploader-level re-issues on top of the exchanger's own
// retries: over a pool a re-issued chunk lands on a (likely) different
// lane, and the server treats duplicates as idempotent overwrites.
func (o ops) shipChunks(id pagestore.VMID, uploadID uint64, chunks []pagestore.ChunkRef, streams int) error {
	tel := o.put
	if tel == nil {
		tel = newPutTel(nil, "")
	}
	send := func(seq int) error {
		tel.inflight.Inc()
		defer tel.inflight.Dec()
		var err error
		for attempt := 0; attempt <= chunkRetries; attempt++ {
			if attempt > 0 {
				tel.retried.Inc()
			}
			if err = o.PutChunkRef(id, uploadID, uint32(seq), chunks[seq]); err == nil {
				tel.chunks.Inc()
				return nil
			}
		}
		return fmt.Errorf("chunk %d/%d: %w", seq, len(chunks), err)
	}

	if streams > len(chunks) {
		streams = len(chunks)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < streams; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := int(next.Add(1)) - 1
				if seq >= len(chunks) {
					return
				}
				if err := send(seq); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("memserver: streaming upload: %w", errs[0])
	}
	return nil
}
