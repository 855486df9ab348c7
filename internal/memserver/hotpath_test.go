package memserver

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// Alloc gates for the measured hot paths. These are the enforcement
// half of the zero-copy framing work: if a future change re-introduces
// a per-op allocation on the GetPage reply or PutChunk framing path,
// these tests fail rather than the regression surfacing as a slow
// benchmark three PRs later.

// discardConn is a net.Conn that swallows writes and replies to every
// read with an endless stream of empty msgOK frames, so a client
// round trip completes without a server (and without allocations).
type discardConn struct {
	reply [5]byte
	pos   int
}

func newDiscardConn() *discardConn {
	c := &discardConn{}
	c.reply[4] = msgOK // length 0, type msgOK
	return c
}

func (c *discardConn) Read(p []byte) (int, error) {
	n := copy(p, c.reply[c.pos:])
	c.pos = (c.pos + n) % len(c.reply)
	return n, nil
}

func (c *discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *discardConn) Close() error                       { return nil }
func (c *discardConn) LocalAddr() net.Addr                { return nil }
func (c *discardConn) RemoteAddr() net.Addr               { return nil }
func (c *discardConn) SetDeadline(t time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(t time.Time) error { return nil }

func testPage(seed uint64) []byte {
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	// Compressible but not trivial: repeated 16-byte motifs.
	motif := make([]byte, 16)
	for i := range motif {
		motif[i] = byte(r.Uint64())
	}
	for i := 0; i < len(page); i += len(motif) {
		copy(page[i:], motif)
	}
	return page
}

// TestPutChunkFramingZeroAlloc drives the real PutChunkRef path —
// segment layout, session-MAC trailer, coalesced/vectored framing and
// the empty-msgOK reply read — and requires zero heap allocations per
// operation once warm.
func TestPutChunkFramingZeroAlloc(t *testing.T) {
	c := newClient(newDiscardConn())
	c.opTimeout = time.Second
	var nonce [16]byte
	c.upMAC = sessionMAC(testSecret, nonce[:])

	im := pagestore.NewImage(units.PagesBytes(16))
	r := rng.New(41)
	page := make([]byte, units.PageSize)
	for i := 0; i < 16; i++ {
		for j := 0; j < len(page); j += 8 {
			binary.BigEndian.PutUint64(page[j:], r.Uint64())
		}
		if err := im.Write(pagestore.PFN(i), page); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := pagestore.SplitSnapshotRefs(snap, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 2 {
		t.Fatalf("want multiple chunks, got %d", len(refs))
	}

	// Warm the reusable scratch (bufs capacity, coalesce buffer).
	for seq, ref := range refs {
		if err := c.PutChunkRef(9, 1, uint32(seq), ref); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for seq, ref := range refs {
			if err := c.PutChunkRef(9, 1, uint32(seq), ref); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("PutChunk framing allocates %.1f times per %d chunks; want 0", allocs, len(refs))
	}
}

// TestGetPageReplyZeroAlloc drives the server's GetPage reply
// construction — beginReply, in-place page encoding, single-write
// finishReply — and requires zero heap allocations per reply once the
// connection scratch is warm.
func TestGetPageReplyZeroAlloc(t *testing.T) {
	page := testPage(3)
	var scratch connScratch
	reply := func() {
		out := scratch.beginReply(msgPage)
		out = pagestore.EncodePageAppend(out, page)
		if err := scratch.finishReply(io.Discard, out); err != nil {
			t.Fatal(err)
		}
	}
	reply() // warm the reply buffer
	if allocs := testing.AllocsPerRun(200, reply); allocs > 0 {
		t.Fatalf("GetPage reply allocates %.1f times per op; want 0", allocs)
	}
}

// legacyHandshake authenticates the way a pre-capability client does: a
// bare 32-byte MAC with no flags byte. Returns the accepted-flags
// payload from msgOK, or the server's error.
func legacyHandshake(t *testing.T, addr string, offerFlags []byte) (net.Conn, []byte, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	typ, nonce, err := readFrame(conn)
	if err != nil || typ != msgChallenge {
		conn.Close()
		t.Fatalf("challenge: typ=%d err=%v", typ, err)
	}
	h := hmac.New(sha256.New, testSecret)
	h.Write(nonce)
	auth := h.Sum(nil)
	auth = append(auth, offerFlags...)
	if err := writeFrame(conn, msgAuth, auth); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	if typ == msgError {
		conn.Close()
		return nil, nil, remoteError(payload)
	}
	if typ != msgOK {
		conn.Close()
		t.Fatalf("unexpected auth reply type %d", typ)
	}
	return conn, payload, nil
}

// TestUploadMACNegotiation covers the capability handshake matrix:
// flag-offering clients negotiate the session MAC, legacy clients stay
// accepted without it, and SetRequireUploadMAC refuses the downgrade.
func TestUploadMACNegotiation(t *testing.T) {
	srv, addr := startServer(t)

	c := dial(t, addr)
	if !c.UploadMACNegotiated() {
		t.Fatal("modern client did not negotiate the upload MAC")
	}
	_, snap := makeSnapshot(t, 8*units.MiB, 21, 20)
	if err := c.PutImage(501, 8*units.MiB, snap); err != nil {
		t.Fatalf("MACed PutImage: %v", err)
	}

	// A legacy-shaped handshake still authenticates while downgrades are
	// allowed, and its accepted-flags echo is empty.
	conn, accepted, err := legacyHandshake(t, addr, nil)
	if err != nil {
		t.Fatalf("legacy handshake refused: %v", err)
	}
	if len(accepted) != 0 && accepted[0] != 0 {
		t.Fatalf("legacy client granted flags %v", accepted)
	}
	// Un-MACed upload over the legacy connection works.
	payload := make([]byte, 12+len(snap))
	binary.BigEndian.PutUint32(payload, 502)
	binary.BigEndian.PutUint64(payload[4:], uint64(8*units.MiB))
	copy(payload[12:], snap)
	if err := writeFrame(conn, msgPutImage, payload); err != nil {
		t.Fatal(err)
	}
	typ, _, err := readFrame(conn)
	if err != nil || typ != msgOK {
		t.Fatalf("legacy PutImage: typ=%d err=%v", typ, err)
	}
	conn.Close()

	// With the downgrade refused, the same handshake is rejected before
	// any operation.
	srv.SetRequireUploadMAC(true)
	if _, _, err := legacyHandshake(t, addr, nil); err == nil {
		t.Fatal("downgrade accepted despite SetRequireUploadMAC")
	} else if !strings.Contains(err.Error(), "MAC required") {
		t.Fatalf("downgrade refusal error = %v", err)
	}
	// Flag-offering clients still connect and upload.
	c2 := dial(t, addr)
	if !c2.UploadMACNegotiated() {
		t.Fatal("modern client did not negotiate under require mode")
	}
	if err := c2.PutImage(503, 8*units.MiB, snap); err != nil {
		t.Fatalf("MACed PutImage under require mode: %v", err)
	}
}

// TestUploadMACRejectsTamper corrupts the MAC trailer of an upload frame
// on a MAC-negotiated connection and checks the server refuses it.
func TestUploadMACRejectsTamper(t *testing.T) {
	_, addr := startServer(t)
	_, snap := makeSnapshot(t, 8*units.MiB, 22, 10)

	conn, accepted, err := legacyHandshake(t, addr, []byte{authFlagUploadMAC})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if len(accepted) == 0 || accepted[0]&authFlagUploadMAC == 0 {
		t.Fatalf("server did not accept the MAC flag: %v", accepted)
	}

	payload := make([]byte, 12+len(snap)+macLen)
	binary.BigEndian.PutUint32(payload, 601)
	binary.BigEndian.PutUint64(payload[4:], uint64(8*units.MiB))
	copy(payload[12:], snap)
	// Trailer left as zeros: a forged/corrupted MAC.
	if err := writeFrame(conn, msgPutImage, payload); err != nil {
		t.Fatal(err)
	}
	typ, errPayload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError {
		t.Fatalf("tampered upload accepted (reply type %d)", typ)
	}
	if !bytes.Contains(errPayload, []byte("MAC")) {
		t.Fatalf("unexpected refusal: %s", errPayload)
	}
}

// TestStreamImageDictRoundTrip pushes a dictionary-mode snapshot with
// zero-page elision through the chunked streaming path and checks the
// server's applied image matches the source bit for bit.
func TestStreamImageDictRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	pool, err := DialPool(addr, testSecret, PoolConfig{Size: 2, Resilience: ResilientConfig{
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, JitterSeed: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	r := rng.New(31)
	im := pagestore.NewImage(units.PagesBytes(300))
	template := testPage(77)
	page := make([]byte, units.PageSize)
	for i := 0; i < 300; i++ {
		switch r.Intn(4) {
		case 0: // untouched zero page
		case 1: // dirty-but-zero page (elided as a zero token)
			if err := im.Write(pagestore.PFN(i), nil); err != nil {
				t.Fatal(err)
			}
		default: // near-template page (dictionary fodder)
			copy(page, template)
			for j := 0; j < 10; j++ {
				page[r.Intn(len(page))] = byte(r.Uint64())
			}
			if err := im.Write(pagestore.PFN(i), page); err != nil {
				t.Fatal(err)
			}
		}
	}
	dict := pagestore.BuildDict(im)
	if dict == nil {
		t.Fatal("template-heavy image produced no dictionary")
	}
	snap, _, err := pagestore.EncodeAllDict(im, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.StreamImage(701, im.Alloc(), snap, PutOptions{Streams: 3, ChunkBytes: 32 << 10}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Store().Get(701)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	have, _, err := pagestore.EncodeAll(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, have) {
		t.Fatal("dict-mode streamed image diverges from the source")
	}
}
