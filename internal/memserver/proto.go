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
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Message types.
const (
	msgChallenge  byte = iota + 1 // server→client: 16-byte nonce
	msgAuth                       // client→server: 32-byte HMAC
	msgOK                         // generic success
	msgError                      // payload: error string
	msgGetPage                    // u32 vmid | u64 pfn
	msgPage                       // u16 token | payload (pagestore page encoding)
	msgPutImage                   // u32 vmid | u64 upload id | u32 seq | u64 alloc bytes | snapshot chunk
	msgPutDiff                    // u32 vmid | u64 upload id | u32 seq | snapshot chunk
	msgDeleteVM                   // u32 vmid
	msgStats                      // -> msgStatsReply
	msgStatsReply                 // JSON payload
	msgSetServing                 // u8 bool: daemon actively serving (host asleep)
	msgGetPages                   // u32 vmid | u32 n | n x u64 pfn (batch fetch)
	msgPages                      // u32 n | n x (u64 pfn | u16 token | payload)
	msgPutCommit                  // u32 vmid | u64 upload id | u32 chunk count
)

// maxFrame bounds a single protocol frame. An upload frame carries a
// whole snapshot when it fits, which for a consolidating host can reach
// hundreds of MiB; 1 GiB is a generous ceiling that still rejects
// corrupt lengths, and a larger snapshot streams in chunks.
const maxFrame = 1 << 30

// maxBatchPages bounds one GetPages batch (prefetchers chunk their work).
const maxBatchPages = 4096

// Uploads. A snapshot travels as self-contained snapshot chunks, each in
// a PutImage or PutDiff frame (the frame type is the upload's kind):
//
//	Put(vmid, 0, 0, chunk)           the whole snapshot, applied at once
//	Put(vmid, uploadID, 0, chunk)    open a staged upload with chunk 0
//	Put(vmid, uploadID, seq, chunk)  stage chunk seq (any order, any lane)
//	PutCommit(vmid, uploadID, n)     validate + apply atomically
//
// Every frame is idempotent: a whole-snapshot put replaces or overwrites
// with the same bytes, a re-sent chunk 0 or any duplicate chunk is
// acknowledged without staging it again, and a chunk or Commit of the
// last committed upload id acknowledges without re-applying. Nothing
// touches the VM's live image until the commit, so a client crash,
// breaker trip or killed connection mid-upload leaves the previous image
// intact (the crash-atomicity DESIGN.md §10 argues).

// maxUploadChunks bounds one staged upload. With the default ~4 MiB
// chunks this allows 64 GiB in flight per VM, far beyond any guest
// allocation the prototype models, while still rejecting absurd counts.
const maxUploadChunks = 16384

// Amortized upload authentication. The HMAC challenge/response
// handshake derives, on both ends, a per-connection AES-256 key from its
// nonce, and every upload payload (PutImage, PutDiff) carries a 16-byte
// AES-GCM tag under that key, bound to the frame's type and its place
// in the connection's upload sequence. The server refuses an
// upload whose tag does not verify. There is nothing to negotiate: the
// auth frame is exactly the 32-byte handshake MAC.
const (
	// macLen is the upload trailer length (the GCM tag).
	macLen = 16
	// sessionKeyInfo domain-separates the session key derivation from
	// the handshake response (which is HMAC(secret, nonce) alone).
	sessionKeyInfo = "oasis/frame-auth/v2"
)

// sessionMAC returns the per-connection upload MAC, AES-256-GCM keyed
// by HMAC(secret, sessionKeyInfo || nonce), which both ends derive from
// the handshake they just completed.
func sessionMAC(secret, nonce []byte) *sessionGCM {
	kdf := hmac.New(sha256.New, secret)
	kdf.Write([]byte(sessionKeyInfo))
	kdf.Write(nonce)
	// A 32-byte key, the standard nonce and tag sizes: neither can fail.
	block, _ := aes.NewCipher(kdf.Sum(nil))
	aead, _ := cipher.NewGCM(block)
	return &sessionGCM{aead: aead}
}

// sessionGCM is one end's upload MAC: the GCM tag of Seal(nonce, head,
// tail), the payload's first 32 bytes as plaintext (whose ciphertext is
// discarded) and the rest as additional data. The nonce is the frame
// type, three zero bytes and seq, which every upload frame advances, so
// none repeats under a key. Fixed arrays keep it allocation-free.
type sessionGCM struct {
	aead  cipher.AEAD
	seq   uint64
	nonce [12]byte
	head  [32]byte
	out   [32 + macLen]byte
}

// compute returns the tag over the concatenation of segs as frame typ.
// Past the head, the payload must lie in a single segment: every upload
// is a head of at most 24 bytes and a chunk, whose 8-byte chunk header
// still fits the 32-byte head, then one caller slice.
func (m *sessionGCM) compute(typ byte, segs ...[]byte) []byte {
	n, tail := 0, []byte(nil)
	for _, s := range segs {
		k := copy(m.head[n:], s)
		n += k
		if k < len(s) {
			if tail != nil {
				panic("memserver: upload MAC tail spans segments")
			}
			tail = s[k:]
		}
	}
	return m.seal(typ, m.head[:n], tail)
}

// verify checks a frame-typ payload whose last macLen bytes are the tag,
// returning the payload with the tag stripped. It advances the sequence
// whether or not the tag verifies, keeping both ends in step.
func (m *sessionGCM) verify(typ byte, payload []byte) ([]byte, error) {
	body := payload[:max(len(payload)-macLen, 0)]
	h := min(len(body), len(m.head))
	if !hmac.Equal(m.seal(typ, body[:h], body[h:]), payload[len(body):]) {
		return nil, errors.New("upload MAC mismatch")
	}
	return body, nil
}

// seal returns the tag for the next frame in sequence.
func (m *sessionGCM) seal(typ byte, head, tail []byte) []byte {
	m.nonce[0] = typ
	binary.BigEndian.PutUint64(m.nonce[4:], m.seq)
	m.seq++
	return m.aead.Seal(m.out[:0], m.nonce[:], head, tail)[len(head):]
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

// readerSize is the buffer every socket's reads go through, one reader
// per socket at each end, made when the socket is and dropped with it,
// so that a GetPage request or a page reply, header and body, is one
// read syscall. A frame larger than the buffer has its body read
// straight into the frame's own buffer past what is already buffered.
const readerSize = 16 << 10

// rearmSlack is how far, as a fraction 1/rearmSlack of the timeout, a
// connection's armed deadline may fall behind where arming it now would
// put it before it is moved. Setting a deadline takes the poller's
// timer locks; moving it once per timeout/rearmSlack of traffic instead
// of once per frame keeps every bound: a deadline armed at now+timeout
// never lets an op wait past its timeout, and a silent connection is
// dropped between timeout·(1 - 1/rearmSlack) and timeout after its last
// frame.
const rearmSlack = 1000

// rearm reports whether a deadline armed at armed (zero: none armed) has
// gone stale at now for timeout and must be moved to now+timeout.
func rearm(armed, now time.Time, timeout time.Duration) bool {
	return armed.Sub(now) < timeout-timeout/rearmSlack
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
const readBufCap = 8 << 20

// readFrameReuse is readFrame with a caller-owned receive buffer: the
// payload is read into *buf when capacity allows, growing (and, past
// readBufCap, later shrinking) as needed, and is then valid only until
// the next call. An upload payload (PutImage, PutDiff) is the
// exception: the image keeps it whole, so it is read into a fresh
// buffer of exactly the frame's length, which the caller owns, and *buf
// is left alone. The connection's buffer never reaches an image, where
// it would pin its spare capacity unseen by the held-bytes accounting.
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
// opposed to a transport failure. A pool returns such errors without
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

// Upload framing. As with GetPages, the encode/parse pairs are the
// single definition of the wire layout, shared by client and server and
// held to the round-trip and no-panic properties by FuzzPutChunkFraming.
//
//	PutImage:  u32 vmid | u64 upload id | u32 seq | u64 alloc | chunk bytes
//	PutDiff:   u32 vmid | u64 upload id | u32 seq | chunk bytes
//	PutCommit: u32 vmid | u64 upload id | u32 chunk count

// putHead is the head of a PutImage or PutDiff frame: which upload the
// chunk after it belongs to. Upload id 0 is a whole snapshot, applied at
// once; any other id is a staged upload, which its chunk 0 opens.
type putHead struct {
	kind     byte // msgPutImage or msgPutDiff
	id       pagestore.VMID
	uploadID uint64
	seq      uint32
	alloc    units.Bytes // the image's allocation; a diff carries none
}

// appendPutHead appends h's wire form to b.
func appendPutHead(b []byte, h putHead) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(h.id))
	b = binary.BigEndian.AppendUint64(b, h.uploadID)
	b = binary.BigEndian.AppendUint32(b, h.seq)
	if h.kind == msgPutImage {
		b = binary.BigEndian.AppendUint64(b, uint64(h.alloc))
	}
	return b
}

// parsePut decodes a kind payload (msgPutImage or msgPutDiff). The chunk
// bytes alias the payload (no copy): every upload frame is read into a
// buffer of its own, which the image keeps.
func parsePut(kind byte, payload []byte) (h putHead, chunk []byte, err error) {
	name, n := "PutDiff", 16
	if kind == msgPutImage {
		name, n = "PutImage", 24
	}
	if len(payload) < n {
		return h, nil, errors.New("malformed " + name)
	}
	h = putHead{
		kind:     kind,
		id:       pagestore.VMID(binary.BigEndian.Uint32(payload)),
		uploadID: binary.BigEndian.Uint64(payload[4:]),
		seq:      binary.BigEndian.Uint32(payload[12:]),
	}
	if kind == msgPutImage {
		h.alloc = units.Bytes(binary.BigEndian.Uint64(payload[16:]))
	}
	switch {
	case h.seq >= maxUploadChunks:
		return h, nil, fmt.Errorf("%s: seq %d beyond the %d-chunk limit", name, h.seq, maxUploadChunks)
	case h.uploadID == 0 && h.seq != 0:
		return h, nil, fmt.Errorf("%s: chunk %d of a whole snapshot", name, h.seq)
	}
	return h, payload[n:], nil
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
