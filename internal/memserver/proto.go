// Package memserver implements the low-power memory page server (§4.3) as
// a real TCP daemon plus client. The host uploads its partial VMs' memory
// images (compressed, optionally differential) before suspending; the
// daemon then services page requests by guest pseudo-frame number while
// the host sleeps. A shared secret authenticates clients with an
// HMAC-SHA256 challenge/response, standing in for the TLS deployment the
// paper prescribes for production (§4.3 "Security").
package memserver

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"strings"

	"oasis/internal/pagestore"
)

// Message types.
const (
	msgChallenge  byte = iota + 1 // server→client: 16-byte nonce
	msgAuth                       // client→server: 32-byte HMAC
	msgOK                         // generic success
	msgError                      // payload: error string
	msgGetPage                    // u32 vmid | u64 pfn
	msgPage                       // u16 token | payload (pagestore page encoding)
	msgPutImage                   // u32 vmid | u64 alloc bytes | snapshot
	msgPutDiff                    // u32 vmid | snapshot
	msgDeleteVM                   // u32 vmid
	msgStats                      // -> msgStatsReply
	msgStatsReply                 // JSON payload
	msgSetServing                 // u8 bool: daemon actively serving (host asleep)
	msgGetPages                   // u32 vmid | u32 n | n x u64 pfn (batch fetch)
	msgPages                      // u32 n | n x (u64 pfn | u16 token | payload)
	msgPutBegin                   // u32 vmid | u64 upload id | u8 kind | u64 alloc bytes
	msgPutChunk                   // u32 vmid | u64 upload id | u32 seq | snapshot chunk
	msgPutCommit                  // u32 vmid | u64 upload id | u32 chunk count
)

// maxFrame bounds a single protocol frame. Uploads stream whole snapshots,
// which for a consolidating host can reach hundreds of MiB; 1 GiB is a
// generous ceiling that still rejects corrupt lengths.
const maxFrame = 1 << 30

// maxBatchPages bounds one GetPages batch (prefetchers chunk their work).
const maxBatchPages = 4096

// Chunked streaming upload (the write-side counterpart of the pipelined
// prefetch path). A snapshot is split into self-contained snapshot
// chunks and shipped concurrently over pool lanes:
//
//	PutBegin(vmid, uploadID, kind, alloc)  open a staging upload
//	PutChunk(vmid, uploadID, seq, chunk)   stage one chunk (any order)
//	PutCommit(vmid, uploadID, n)           validate + apply atomically
//
// Every frame is idempotent: re-sending a Begin keeps already-staged
// chunks, a duplicate Chunk overwrites seq with identical bytes, and a
// re-sent Commit of the last committed upload id acknowledges without
// re-applying. Nothing touches the VM's live image until Commit, so a
// client crash, breaker trip or killed connection mid-upload leaves the
// previous image intact (the crash-atomicity DESIGN.md §10 argues).

// Upload kinds carried by PutBegin.
const (
	putKindImage byte = 0 // full image: staged image replaces the VM's
	putKindDiff  byte = 1 // differential: chunks apply onto the live image at commit
)

// maxUploadChunks bounds one staged upload. With the default ~4 MiB
// chunks this allows 64 GiB in flight per VM, far beyond any guest
// allocation the prototype models, while still rejecting absurd counts.
const maxUploadChunks = 16384

// Amortized upload authentication. The HMAC challenge/response
// handshake stays exactly as before; a client may additionally offer
// capability flags in a single byte after the 32-byte handshake MAC,
// and the server echoes the flags it accepts in the msgOK payload.
// When both sides accept authFlagUploadMAC, every upload payload
// (PutImage, PutDiff, PutChunk) carries a 32-byte HMAC-SHA256 trailer
// over the payload, keyed by a per-connection session key derived from
// the handshake nonce. The MAC is per-chunk, not per-frame-byte: one
// SHA-256 pass over megabytes of page data costs ~1 GB/s, amortized to
// noise, while tying the upload bytes to the authenticated session. A
// server configured with SetRequireUploadMAC refuses the handshake of
// any client that does not offer the flag — the downgrade-refusal rule.
const (
	authFlagUploadMAC byte = 1 << 0

	// macLen is the upload trailer length (HMAC-SHA256).
	macLen = sha256.Size

	// sessionKeyInfo domain-separates the session key derivation from
	// the handshake response (which is HMAC(secret, nonce) alone).
	sessionKeyInfo = "oasis/frame-auth/v1"
)

// sessionMAC returns the per-connection upload MAC state: an
// HMAC-SHA256 keyed by HMAC(secret, sessionKeyInfo || nonce). Both ends
// derive it from the handshake they just completed; the trailer never
// exposes the long-lived secret directly.
func sessionMAC(secret, nonce []byte) *sessionHMAC {
	kdf := hmac.New(sha256.New, secret)
	kdf.Write([]byte(sessionKeyInfo))
	kdf.Write(nonce)
	return &sessionHMAC{h: hmac.New(sha256.New, kdf.Sum(nil))}
}

// sessionHMAC wraps the reusable upload-MAC hash with a fixed Sum
// buffer, so the per-chunk MAC computation allocates nothing.
type sessionHMAC struct {
	h   hash.Hash
	sum [macLen]byte
}

// compute MACs the concatenation of segs into the reused sum buffer.
func (m *sessionHMAC) compute(segs ...[]byte) []byte {
	m.h.Reset()
	for _, s := range segs {
		if len(s) > 0 {
			m.h.Write(s)
		}
	}
	return m.h.Sum(m.sum[:0])
}

// verify checks a payload whose last macLen bytes are the trailer,
// returning the payload with the trailer stripped.
func (m *sessionHMAC) verify(payload []byte) ([]byte, error) {
	if len(payload) < macLen {
		return nil, errors.New("upload payload shorter than its MAC trailer")
	}
	body := payload[:len(payload)-macLen]
	if !hmac.Equal(m.compute(body), payload[len(payload)-macLen:]) {
		return nil, errors.New("upload MAC mismatch")
	}
	return body, nil
}

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// coalesceLimit is the frame size up to which writeFrameBufs assembles
// the header and payload segments into one reused buffer and issues a
// single Write. Larger frames go out as vectored buffers: on a TCP
// connection net.Buffers becomes one writev, and on wrapped transports
// it degrades to a handful of sequential writes — still far fewer
// syscalls per byte than copying megabytes through a staging buffer.
const coalesceLimit = 64 << 10

// writeFrameBufs sends one frame already laid out as segments in *bufs.
// (*bufs)[0] must be the 5-byte header (length covering the rest). The
// scratch buffer is reused across calls for the coalesce path; page
// bytes are never copied on the vectored path. bufs is a pointer both
// because WriteTo consumes the segment slice in place on partial writes
// and because passing the header by value would make it escape (one
// hidden allocation per frame — exactly what this path exists to avoid).
func writeFrameBufs(w io.Writer, scratch *[]byte, bufs *net.Buffers) error {
	total := 0
	for _, s := range *bufs {
		total += len(s)
	}
	if total <= coalesceLimit {
		b := (*scratch)[:0]
		for _, s := range *bufs {
			b = append(b, s...)
		}
		*scratch = b
		_, err := w.Write(b)
		return err
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame, enforcing the size ceiling.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	return readFrameHdr(r, &hdr)
}

// readFrameHdr is readFrame with a caller-owned header array: handing
// the header to io.ReadFull through the interface makes a stack array
// escape, so hot paths pass a long-lived one (the client reuses its
// frame-header scratch) to keep the empty-reply read allocation-free.
func readFrameHdr(r io.Reader, hdr *[5]byte) (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("memserver: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return hdr[4], nil, nil
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// readBufCap is the ceiling readFrameReuse keeps a connection's receive
// buffer at: a buffer grown for one oversized frame is released after
// use instead of pinning memory for the connection's lifetime.
// Streaming-upload chunks (~4 MiB) stay under it, so the steady-state
// upload path reads into one long-lived buffer with zero per-frame
// allocations.
const readBufCap = 8 << 20

// readFrameReuse is readFrame with a caller-owned receive buffer: the
// payload is read into *buf when capacity allows, growing (and, past
// readBufCap, later shrinking) as needed, and is then valid only until
// the next call; handlers that keep bytes of it copy them (see
// putChunk). A PutImage or PutDiff payload is the exception: the image
// keeps it whole, so it is read into a fresh buffer of exactly the
// frame's length, which the caller owns, and *buf is left alone. The
// connection's buffer never reaches an image, where it would pin its
// spare capacity unseen by the held-bytes accounting.
func readFrameReuse(r io.Reader, hdr *[5]byte, buf *[]byte) (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("memserver: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return hdr[4], nil, nil
	}
	b := *buf
	switch {
	case hdr[4] == msgPutImage || hdr[4] == msgPutDiff:
		b = make([]byte, n)
	case cap(b) < n || (cap(b) > readBufCap && n <= readBufCap):
		b = make([]byte, n)
		*buf = b
	default:
		b = b[:n]
		*buf = b
	}
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	return hdr[4], b, nil
}

// remoteError is an error reported by the peer.
type remoteError string

func (e remoteError) Error() string { return "memserver: remote: " + string(e) }

// IsRemoteError reports whether err is a reply from a healthy server
// refusing the request (unknown VM, not serving, malformed payload), as
// opposed to a transport failure. A lane returns such errors without
// retrying or tripping the breaker; the shard fabric uses the
// distinction to decide between hinting a write for later replay
// (transport loss) and failing it outright (server refusal).
func IsRemoteError(err error) bool {
	var r remoteError
	return errors.As(err, &r)
}

// IsUnknownVM reports whether err is a server refusing an operation on a
// VM it holds no image for. To the shard fabric that is the signature of
// a backend that restarted empty. The server relays the page store's
// error text, so the match is keyed to the constant the store formats
// that error from.
func IsUnknownVM(err error) bool {
	var r remoteError
	return errors.As(err, &r) && strings.Contains(string(r), pagestore.UnknownVMText)
}

// GetPages batch framing. The encode/parse pairs below are the single
// definition of the wire layout, shared by client and server (and
// exercised directly by the fuzz tests in fuzz_test.go, which hold the
// round-trip property and the no-panic-on-garbage property over them).
//
//	request: u32 vmid | u32 n | n x u64 pfn
//	reply:   u32 n | n x (u64 pfn | u16 token | token-determined body)

// encodeGetPagesRequest builds a msgGetPages payload.
func encodeGetPagesRequest(id pagestore.VMID, pfns []pagestore.PFN) []byte {
	req := make([]byte, 8, 8+8*len(pfns))
	binary.BigEndian.PutUint32(req, uint32(id))
	binary.BigEndian.PutUint32(req[4:], uint32(len(pfns)))
	for _, pfn := range pfns {
		req = binary.BigEndian.AppendUint64(req, uint64(pfn))
	}
	return req
}

// parseGetPagesRequest decodes a msgGetPages payload, enforcing the batch
// ceiling and an exact length match (a short or oversized payload means a
// confused or malicious peer, not a usable prefix). The PFNs are appended
// to dst[:0], which a connection reuses across requests.
func parseGetPagesRequest(dst []pagestore.PFN, payload []byte) (pagestore.VMID, []pagestore.PFN, error) {
	if len(payload) < 8 {
		return 0, nil, errors.New("malformed GetPages")
	}
	id := pagestore.VMID(binary.BigEndian.Uint32(payload))
	n := int(binary.BigEndian.Uint32(payload[4:]))
	if n > maxBatchPages || n < 0 || len(payload) != 8+8*n {
		return 0, nil, fmt.Errorf("malformed GetPages batch of %d", n)
	}
	pfns := dst[:0]
	for i := 0; i < n; i++ {
		pfns = append(pfns, pagestore.PFN(binary.BigEndian.Uint64(payload[8+8*i:])))
	}
	return id, pfns, nil
}

// parsePagesReply decodes a msgPages payload into pages the caller owns:
// a compressed entry is decoded into a fresh page and a raw one copied
// out, so that no page pins the reply, and nobody writes either again.
// All-zero pages are the shared zero page, which must not be modified.
func parsePagesReply(reply []byte) (map[pagestore.PFN][]byte, error) {
	if len(reply) < 4 {
		return nil, errors.New("memserver: short batch reply")
	}
	n := int(binary.BigEndian.Uint32(reply))
	if n < 0 || n > maxBatchPages {
		return nil, fmt.Errorf("memserver: batch reply of %d pages exceeds limit", n)
	}
	out := make(map[pagestore.PFN][]byte, n)
	off := 4
	for i := 0; i < n; i++ {
		if off+10 > len(reply) {
			return nil, errors.New("memserver: truncated batch reply")
		}
		pfn := pagestore.PFN(binary.BigEndian.Uint64(reply[off:]))
		token := binary.BigEndian.Uint16(reply[off+8:])
		off += 10
		bodyLen, err := pagestore.PageBodyLen(token)
		if err != nil {
			return nil, fmt.Errorf("memserver: batch page %d: %w", pfn, err)
		}
		if off+bodyLen > len(reply) {
			return nil, errors.New("memserver: truncated batch page")
		}
		page, err := pagestore.DecodePage(token, reply[off:off+bodyLen])
		if err != nil {
			return nil, err
		}
		if bodyLen > 0 && &page[0] == &reply[off] {
			page = bytes.Clone(page) // a raw entry, decoded in place
		}
		out[pfn] = page
		off += bodyLen
	}
	return out, nil
}

// Streaming-upload framing. As with GetPages, the encode/parse pairs are
// the single definition of the wire layout, shared by client and server
// and held to the round-trip and no-panic properties by
// FuzzPutChunkFraming.
//
//	PutBegin:  u32 vmid | u64 upload id | u8 kind | u64 alloc
//	PutChunk:  u32 vmid | u64 upload id | u32 seq | chunk bytes
//	PutCommit: u32 vmid | u64 upload id | u32 chunk count

// encodePutBegin builds a msgPutBegin payload.
func encodePutBegin(id pagestore.VMID, uploadID uint64, kind byte, alloc uint64) []byte {
	req := make([]byte, 0, 21)
	req = binary.BigEndian.AppendUint32(req, uint32(id))
	req = binary.BigEndian.AppendUint64(req, uploadID)
	req = append(req, kind)
	return binary.BigEndian.AppendUint64(req, alloc)
}

// parsePutBegin decodes a msgPutBegin payload (exact length, known kind).
func parsePutBegin(payload []byte) (id pagestore.VMID, uploadID uint64, kind byte, alloc uint64, err error) {
	if len(payload) != 21 {
		return 0, 0, 0, 0, errors.New("malformed PutBegin")
	}
	kind = payload[12]
	if kind != putKindImage && kind != putKindDiff {
		return 0, 0, 0, 0, fmt.Errorf("PutBegin: unknown upload kind %d", kind)
	}
	id = pagestore.VMID(binary.BigEndian.Uint32(payload))
	uploadID = binary.BigEndian.Uint64(payload[4:])
	alloc = binary.BigEndian.Uint64(payload[13:])
	return id, uploadID, kind, alloc, nil
}

// parsePutChunk decodes a msgPutChunk payload. The chunk bytes alias the
// payload (no copy): readFrame allocates a fresh buffer per frame, so the
// server may retain them.
func parsePutChunk(payload []byte) (id pagestore.VMID, uploadID uint64, seq uint32, chunk []byte, err error) {
	if len(payload) < 16 {
		return 0, 0, 0, nil, errors.New("malformed PutChunk")
	}
	id = pagestore.VMID(binary.BigEndian.Uint32(payload))
	uploadID = binary.BigEndian.Uint64(payload[4:])
	seq = binary.BigEndian.Uint32(payload[12:])
	if seq >= maxUploadChunks {
		return 0, 0, 0, nil, fmt.Errorf("PutChunk: seq %d beyond the %d-chunk limit", seq, maxUploadChunks)
	}
	return id, uploadID, seq, payload[16:], nil
}

// encodePutCommit builds a msgPutCommit payload.
func encodePutCommit(id pagestore.VMID, uploadID uint64, chunks uint32) []byte {
	req := make([]byte, 0, 16)
	req = binary.BigEndian.AppendUint32(req, uint32(id))
	req = binary.BigEndian.AppendUint64(req, uploadID)
	return binary.BigEndian.AppendUint32(req, chunks)
}

// parsePutCommit decodes a msgPutCommit payload (exact length, bounded
// chunk count).
func parsePutCommit(payload []byte) (id pagestore.VMID, uploadID uint64, chunks uint32, err error) {
	if len(payload) != 16 {
		return 0, 0, 0, errors.New("malformed PutCommit")
	}
	chunks = binary.BigEndian.Uint32(payload[12:])
	if chunks == 0 || chunks > maxUploadChunks {
		return 0, 0, 0, fmt.Errorf("PutCommit: %d chunks outside [1, %d]", chunks, maxUploadChunks)
	}
	id = pagestore.VMID(binary.BigEndian.Uint32(payload))
	uploadID = binary.BigEndian.Uint64(payload[4:])
	return id, uploadID, chunks, nil
}
