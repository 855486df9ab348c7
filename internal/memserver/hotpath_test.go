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
// Reads return pre first: a challenge, for a lane's handshake.
type discardConn struct {
	pre   []byte
	reply [5]byte
	pos   int
}

func newDiscardConn() *discardConn {
	c := &discardConn{}
	c.reply[4] = msgOK // length 0, type msgOK
	return c
}

func (c *discardConn) Read(p []byte) (int, error) {
	if len(c.pre) > 0 {
		n := copy(p, c.pre)
		c.pre = c.pre[n:]
		return n, nil
	}
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

// TestPutChunkFramingZeroAlloc drives the real staged-chunk path of a
// lane — retry and breaker bookkeeping, segment layout, session-MAC
// trailer, coalesced/vectored framing and the empty-msgOK reply read —
// and requires zero heap allocations per operation once warm.
func TestPutChunkFramingZeroAlloc(t *testing.T) {
	l := newLane("discard", testSecret, ResilientConfig{Network: netFunc(func(string, time.Time) (net.Conn, error) {
		c := newDiscardConn()
		c.pre = append([]byte{0, 0, 0, 16, msgChallenge}, make([]byte, 16)...) // a zero nonce
		return c, nil
	})})
	c := ops{x: l}

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
		if err := c.putChunk(putHead{kind: msgPutImage, id: 9, uploadID: 1, seq: uint32(seq)}, ref); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for seq, ref := range refs {
			if err := c.putChunk(putHead{kind: msgPutImage, id: 9, uploadID: 1, seq: uint32(seq)}, ref); err != nil {
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

// rawHandshake authenticates over a bare connection with the 32-byte
// handshake MAC followed by extra, and returns the connection, or the
// server's refusal.
func rawHandshake(t *testing.T, addr string, extra []byte) (net.Conn, error) {
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
	if err := writeFrame(conn, msgAuth, append(h.Sum(nil), extra...)); err != nil {
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
		return nil, remoteError(payload)
	}
	if typ != msgOK {
		conn.Close()
		t.Fatalf("unexpected auth reply type %d", typ)
	}
	return conn, nil
}

// putImagePayload lays out a whole-snapshot PutImage request body
// followed by trailer.
func putImagePayload(id uint32, alloc units.Bytes, snap, trailer []byte) []byte {
	payload := appendPutHead(nil, putHead{kind: msgPutImage, id: pagestore.VMID(id), alloc: alloc})
	return append(append(payload, snap...), trailer...)
}

// TestUploadMACNegotiation: the upload MAC is not negotiable. An
// authenticated connection whose upload carries no trailer has that
// upload refused and nothing stored; an auth frame with a byte past the
// 32-byte MAC (the old capability offer) is refused at the handshake;
// the client's uploads carry the trailer and are stored.
func TestUploadMACNegotiation(t *testing.T) {
	srv, addr := startServer(t)
	_, snap := makeSnapshot(t, 8*units.MiB, 21, 20)

	conn, err := rawHandshake(t, addr, nil)
	if err != nil {
		t.Fatalf("32-byte handshake refused: %v", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgPutImage, putImagePayload(502, 8*units.MiB, snap, nil)); err != nil {
		t.Fatal(err)
	}
	typ, errPayload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError {
		t.Fatalf("unsigned PutImage accepted (reply type %d)", typ)
	}
	if !bytes.Contains(errPayload, []byte("MAC")) {
		t.Fatalf("unexpected refusal: %s", errPayload)
	}
	if _, err := srv.Store().Get(502); err == nil {
		t.Fatal("unsigned PutImage stored an image")
	}

	if _, err := rawHandshake(t, addr, []byte{1}); err == nil {
		t.Fatal("33-byte auth frame accepted")
	} else if !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("33-byte auth frame refusal = %v", err)
	}

	c := dial(t, addr)
	if err := c.PutImage(501, 8*units.MiB, snap); err != nil {
		t.Fatalf("MACed PutImage: %v", err)
	}
}

// TestUploadMACRejectsTamper corrupts the MAC trailer of an upload frame
// and checks the server refuses it.
func TestUploadMACRejectsTamper(t *testing.T) {
	_, addr := startServer(t)
	_, snap := makeSnapshot(t, 8*units.MiB, 22, 10)

	conn, err := rawHandshake(t, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Trailer left as zeros: a forged/corrupted MAC.
	if err := writeFrame(conn, msgPutImage, putImagePayload(601, 8*units.MiB, snap, make([]byte, macLen))); err != nil {
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

// TestStrippedCapabilityCannotDowngradeUploads puts a relay between a
// client and the server that drops any byte after the 32-byte handshake
// MAC in the auth frame — where a capability offer used to sit, outside
// the MAC's cover — and flips one snapshot byte of every PutImage. The
// client must still sign its upload, so the server refuses the tampered
// image and stores nothing.
func TestStrippedCapabilityCannotDowngradeUploads(t *testing.T) {
	srv, addr := startServer(t)
	_, snap := makeSnapshot(t, 8*units.MiB, 23, 20)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		in, err := ln.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer out.Close()
		go io.Copy(in, out) //nolint:errcheck // server→client verbatim
		for {
			var hdr [5]byte
			if _, err := io.ReadFull(in, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[:4]))
			if _, err := io.ReadFull(in, payload); err != nil {
				return
			}
			switch hdr[4] {
			case msgAuth:
				payload = payload[:min(len(payload), sha256.Size)]
			case msgPutImage:
				payload[24+len(snap)/2] ^= 0x01
			}
			if err := writeFrame(out, hdr[4], payload); err != nil {
				return
			}
		}
	}()

	c := dial(t, ln.Addr().String())
	err = c.PutImage(701, 8*units.MiB, snap)
	if err == nil {
		t.Fatal("PutImage of a tampered snapshot succeeded through the stripping relay")
	}
	if !strings.Contains(err.Error(), "MAC") {
		t.Fatalf("tampered PutImage refused for another reason: %v", err)
	}
	if _, err := srv.Store().Get(701); err == nil {
		t.Fatal("tampered image stored")
	}
}
