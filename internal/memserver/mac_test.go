package memserver

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// The upload MAC binds each upload frame to its type and to its place in
// the connection's upload sequence (proto.go). These tests put a relay
// between an honest client and the server that replays, retypes or
// re-signs frames, and hold the MAC to refusing every one of them.

// relayStep handles one client frame in a relay: it forwards what it
// likes with exchange (one frame to the server, its reply back) and
// returns the reply the client sees.
type relayStep func(typ byte, payload []byte, exchange func(byte, []byte) (byte, []byte)) (byte, []byte)

// startRelay accepts one client, passes the server's challenge through
// and then hands every client frame to step. It returns the address
// the client dials.
func startRelay(t *testing.T, addr string, step relayStep) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
		exchange := func(typ byte, payload []byte) (byte, []byte) {
			if err := writeFrame(out, typ, payload); err != nil {
				return msgError, []byte("relay: " + err.Error())
			}
			rtyp, reply, err := readFrame(out)
			if err != nil {
				return msgError, []byte("relay: " + err.Error())
			}
			return rtyp, reply
		}
		if typ, challenge, err := readFrame(out); err != nil || writeFrame(in, typ, challenge) != nil {
			return
		}
		for {
			typ, payload, err := readFrame(in)
			if err != nil {
				return
			}
			rtyp, reply := step(typ, payload, exchange)
			if err := writeFrame(in, rtyp, reply); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// dirtied returns a diff that rewrites every third page of src, and
// the encoding of src after it.
func dirtied(t *testing.T, src *pagestore.Image, pages int) (diff, after []byte) {
	t.Helper()
	epoch := src.NextEpoch()
	for pfn := 0; pfn < pages; pfn += 3 {
		if err := src.Write(pagestore.PFN(pfn), bytes.Repeat([]byte{byte(pfn) | 1}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
	}
	diff, _, err := pagestore.EncodeDirtySince(src, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if after, _, err = pagestore.EncodeAll(src); err != nil {
		t.Fatal(err)
	}
	return diff, after
}

// TestReplayedUploadRefused: a relay records a PutImage, lets a PutDiff
// through, then replays the recorded frame on the same connection and
// swallows the server's reply. The server must refuse the replay, so
// the image still reads the diff's pages. A MAC over the payload alone
// verifies the replay and reinstalls the old image over the diff the
// server already acknowledged.
func TestReplayedUploadRefused(t *testing.T) {
	srv, addr := startServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 31, 30)
	diff, want := dirtied(t, src, 30)

	var recorded []byte
	replayed := make(chan string, 1)
	relay := startRelay(t, addr, func(typ byte, payload []byte, exchange func(byte, []byte) (byte, []byte)) (byte, []byte) {
		rtyp, reply := exchange(typ, payload)
		switch typ {
		case msgPutImage:
			recorded = payload
		case msgPutDiff:
			_, refusal := exchange(msgPutImage, recorded)
			replayed <- string(refusal)
		}
		return rtyp, reply
	})
	c := dial(t, relay)
	if err := c.PutImage(801, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	if err := c.PutDiff(801, diff); err != nil {
		t.Fatal(err)
	}
	if refusal := <-replayed; !strings.Contains(refusal, "MAC") {
		t.Errorf("replayed PutImage answered %q, want a MAC refusal", refusal)
	}
	if !bytes.Equal(serverImageBytes(t, srv, 801), want) {
		t.Fatal("the replayed PutImage overwrote the acknowledged diff")
	}
}

// TestRetypedUploadRefused: a relay rewrites the type byte of the
// second upload frame, PutDiff to PutImage and PutImage to PutDiff. The
// server must refuse it on the MAC and keep the image it had, and the
// next honest upload on the connection must still verify: both ends
// advanced their upload sequence past the refused frame.
func TestRetypedUploadRefused(t *testing.T) {
	for _, retype := range []struct {
		name     string
		from, to byte
	}{
		{"diff-as-image", msgPutDiff, msgPutImage},
		{"image-as-diff", msgPutImage, msgPutDiff},
	} {
		t.Run(retype.name, func(t *testing.T) {
			srv, addr := startServer(t)
			src, snap := makeSnapshot(t, 8*units.MiB, 32, 30)
			diff, want := dirtied(t, src, 30)
			uploads := 0
			relay := startRelay(t, addr, func(typ byte, payload []byte, exchange func(byte, []byte) (byte, []byte)) (byte, []byte) {
				if typ == msgPutImage || typ == msgPutDiff {
					if uploads++; uploads == 2 && typ == retype.from {
						typ = retype.to
					}
				}
				return exchange(typ, payload)
			})
			c := dial(t, relay)
			if err := c.PutImage(802, 8*units.MiB, snap); err != nil {
				t.Fatal(err)
			}
			var err error
			if retype.from == msgPutDiff {
				err = c.PutDiff(802, diff)
			} else {
				err = c.PutImage(802, 8*units.MiB, want)
			}
			if err == nil || !strings.Contains(err.Error(), "MAC") {
				t.Fatalf("retyped upload answered %v, want a MAC refusal", err)
			}
			if !bytes.Equal(serverImageBytes(t, srv, 802), snap) {
				t.Fatal("the retyped upload changed the image")
			}
			if err := c.PutDiff(802, diff); err != nil {
				t.Fatalf("honest PutDiff after the refusal: %v", err)
			}
			if !bytes.Equal(serverImageBytes(t, srv, 802), want) {
				t.Fatal("the honest PutDiff after the refusal was not applied")
			}
		})
	}
}

// TestV1UploadMACRefused: a peer speaking the previous upload MAC — a
// 32-byte HMAC-SHA256 trailer keyed by the v1 label — passes the
// unchanged handshake but has its upload refused, and nothing is stored.
func TestV1UploadMACRefused(t *testing.T) {
	srv, addr := startServer(t)
	_, snap := makeSnapshot(t, 8*units.MiB, 33, 20)

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	typ, nonce, err := readFrame(conn)
	if err != nil || typ != msgChallenge {
		t.Fatalf("challenge: typ=%d err=%v", typ, err)
	}
	h := hmac.New(sha256.New, testSecret)
	h.Write(nonce)
	if err := writeFrame(conn, msgAuth, h.Sum(nil)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != msgOK {
		t.Fatalf("handshake: typ=%d err=%v", typ, err)
	}

	kdf := hmac.New(sha256.New, testSecret)
	kdf.Write([]byte("oasis/frame-auth/v1"))
	kdf.Write(nonce)
	v1 := hmac.New(sha256.New, kdf.Sum(nil))
	payload := putImagePayload(803, 8*units.MiB, snap, nil)
	v1.Write(payload)
	if err := writeFrame(conn, msgPutImage, v1.Sum(payload)); err != nil {
		t.Fatal(err)
	}
	typ, refusal, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError || !bytes.Contains(refusal, []byte("MAC")) {
		t.Fatalf("v1-signed PutImage answered type %d %q, want a MAC refusal", typ, refusal)
	}
	if _, err := srv.Store().Get(803); err == nil {
		t.Fatal("v1-signed PutImage stored an image")
	}
}

// TestUploadMACTamperProperty flips every single bit of a signed upload
// frame — its type, the 32-byte head, the tail and the tag — swaps two
// frames' order and truncates the tag, over a payload shorter than
// the head plus 8 bytes and over one of a page and a chunk prefix. Each
// is refused, and the honest frame signed next still verifies: a
// refusal moves both ends' sequence by one.
func TestUploadMACTamperProperty(t *testing.T) {
	r := rng.New(35)
	for _, size := range []int{40, int(units.PageSize) + 24} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(r.Uint64())
		}
		nonce := []byte("tamper-nonce-000")
		client, server := sessionMAC(testSecret, nonce), sessionMAC(testSecret, nonce)
		frame := make([]byte, size+macLen)
		sign := func() []byte {
			copy(frame, payload)
			copy(frame[size:], client.compute(msgPutDiff, payload))
			return frame
		}
		refuse := func(what string, typ byte, f []byte) {
			t.Helper()
			if _, err := server.verify(typ, f); err == nil {
				t.Fatalf("%d-byte payload: %s verified", size, what)
			}
			if _, err := server.verify(msgPutDiff, sign()); err != nil {
				t.Fatalf("%d-byte payload: the honest frame after %s: %v", size, what, err)
			}
		}
		for bit := range 8 {
			refuse(fmt.Sprintf("type bit %d", bit), msgPutDiff^1<<bit, sign())
		}
		for bit := range 8 * len(frame) {
			f := sign()
			f[bit/8] ^= 1 << (bit % 8)
			refuse(fmt.Sprintf("frame bit %d", bit), msgPutDiff, f)
		}
		for cut := 1; cut <= macLen; cut++ {
			refuse(fmt.Sprintf("tag cut by %d", cut), msgPutDiff, sign()[:size+macLen-cut])
		}
		first := bytes.Clone(sign())
		second := sign()
		if _, err := server.verify(msgPutDiff, second); err == nil {
			t.Fatalf("%d-byte payload: the second frame verified first", size)
		}
		refuse("swapped frames", msgPutDiff, first)
	}
}

// BenchmarkSessionMAC measures the upload MAC over a staged-chunk-shaped
// payload (a 24-byte prefix, then the chunk) of one page and of a
// default ~4 MiB streaming chunk: signing on the client and verifying
// on the server, each one GCM pass.
func BenchmarkSessionMAC(b *testing.B) {
	nonce := []byte("bench-nonce-0000")
	for _, size := range []struct {
		name string
		n    int
	}{{"4KiB", 4 << 10}, {"4MiB", 4 << 20}} {
		prefix, body := make([]byte, 24), make([]byte, size.n)
		r := rng.New(36)
		for i := range body {
			body[i] = byte(r.Uint64())
		}
		b.Run(size.name, func(b *testing.B) {
			b.Run("compute", func(b *testing.B) {
				m := sessionMAC(testSecret, nonce)
				b.SetBytes(int64(len(prefix) + len(body)))
				for range b.N {
					m.compute(msgPutDiff, prefix, body)
				}
			})
			b.Run("verify", func(b *testing.B) {
				client, server := sessionMAC(testSecret, nonce), sessionMAC(testSecret, nonce)
				payload := append(append(bytes.Clone(prefix), body...), client.compute(msgPutDiff, prefix, body)...)
				b.SetBytes(int64(len(prefix) + len(body)))
				for range b.N {
					server.seq = 0 // verify the one signed frame again, as its first
					if _, err := server.verify(msgPutDiff, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
