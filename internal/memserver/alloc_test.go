//go:build !race

package memserver

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

// The race detector's instrumentation adds allocations of its own, so
// the exact count is held in uninstrumented builds only.

// TestGetPagesWireFormZeroAlloc drives the whole server-side handling of
// GetPages and GetPage — parse, store lookup, stored entries copied into
// the connection's reply frame, one write — against an image held as it
// was uploaded, and requires zero heap allocations per request once the
// connection's buffers are warm.
func TestGetPagesWireFormZeroAlloc(t *testing.T) {
	s := NewServer(testSecret, nil)
	_, snap := makeSnapshot(t, 4*units.MiB, 8, 512)
	if err := s.InstallImage(3, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	pfns := make([]pagestore.PFN, 256)
	for i := range pfns {
		pfns[i] = pagestore.PFN(2 * i)
	}
	batch, single := encodeGetPagesRequest(3, pfns), getPageRequest(3, 9)
	conn, scratch := newDiscardConn(), new(connScratch)
	serve := func() {
		if err := s.handle(conn, msgGetPages, batch, scratch); err != nil {
			t.Fatal(err)
		}
		if err := s.handle(conn, msgGetPage, single, scratch); err != nil {
			t.Fatal(err)
		}
	}
	serve() // warm the reply buffer
	if cap(scratch.reply) < 256*100 {
		t.Fatalf("reply buffer of %d bytes: the batch was not served", cap(scratch.reply))
	}
	if allocs := testing.AllocsPerRun(100, serve); allocs > 0 {
		t.Fatalf("serving a wire-form image allocates %.1f times per GetPages+GetPage; want 0", allocs)
	}
}

// putFrame frames a PutImage or PutDiff body as a client sends it: the
// frame header, then the body and its session MAC trailer, signed as the
// client's next upload frame.
func putFrame(mac *sessionGCM, typ byte, body []byte) []byte {
	payload := append(bytes.Clone(body), mac.compute(typ, body)...)
	hdr := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(append(hdr, typ), payload...)
}

// TestPutKeepsTheBufferItWasReadInto is the server put path's copy
// gate: a PutImage or PutDiff payload is read into a buffer of exactly
// the frame's length — never the connection's reused one — and the
// image keeps its entries in that buffer. A change to a byte of the
// buffer after the put shows in the served entry, and the read plus
// the handling allocate the frame once, not twice. The large image is
// over readBufCap, the small diff reads after it on the same warm
// connection.
func TestPutKeepsTheBufferItWasReadInto(t *testing.T) {
	const id = 5
	nonce := []byte("put-nonce-000000")
	client := sessionMAC(testSecret, nonce)
	s := NewServer(testSecret, nil)
	conn := newDiscardConn()
	scratch := &connScratch{upMAC: sessionMAC(testSecret, nonce)}

	const alloc = 16 * units.MiB
	src, small := makeSnapshot(t, alloc, 3, 512)
	large := rawSnapshot(t, alloc, 4, 2100)
	if len(large) <= readBufCap {
		t.Fatalf("large image of %d bytes is not over readBufCap", len(large))
	}
	epoch := src.NextEpoch()
	r := rng.New(6)
	page := make([]byte, units.PageSize)
	for pfn := pagestore.PFN(0); pfn < 512; pfn += 2 {
		for i := range page {
			page[i] = byte(r.Uint64())
		}
		if err := src.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	diff, _, err := pagestore.EncodeDirtySince(src, epoch)
	if err != nil {
		t.Fatal(err)
	}
	imageBody := func(snap []byte) []byte {
		return append(appendPutHead(nil, putHead{kind: msgPutImage, id: id, alloc: alloc}), snap...)
	}
	cases := []struct {
		name string
		typ  byte
		head int // request bytes before the snapshot
		body []byte
	}{
		{"image", msgPutImage, 24, imageBody(small)},
		{"large-image", msgPutImage, 24, imageBody(large)},
		{"diff", msgPutDiff, 16, append(appendPutHead(nil, putHead{kind: msgPutDiff, id: id}), diff...)},
	}
	scratch.read = make([]byte, 0, readBufCap) // a connection warm from earlier frames
	const reps = 3
	for _, c := range cases {
		// Each run reads the next frame: the server refuses a replay.
		var frames [reps][]byte
		for i := range frames {
			frames[i] = putFrame(client, c.typ, c.body)
		}
		frame, run := frames[0], 0
		var payload []byte
		put := func() {
			frame, run = frames[run], run+1
			typ, p, err := readFrameReuse(bytes.NewReader(frame), &scratch.hdr, &scratch.read)
			if err != nil || typ != c.typ {
				t.Fatalf("%s: read frame type %d: %v", c.name, typ, err)
			}
			if err := s.handle(conn, typ, p, scratch); err != nil {
				t.Fatal(err)
			}
			payload = p
		}
		got := minAllocBytes(reps, put)
		if len(payload) != len(frame)-5 || cap(payload) != len(payload) {
			t.Fatalf("%s: payload read into %d of %d bytes, want exactly the %d-byte frame",
				c.name, len(payload), cap(payload), len(frame)-5)
		}
		if cap(scratch.read) > 0 && &scratch.read[:1][0] == &payload[0] {
			t.Fatalf("%s: payload read into the connection's reused buffer", c.name)
		}
		// The frame itself, plus the image's slots and table (tens of
		// bytes a page): a second copy of the payload would double it.
		if limit := uint64(2 * len(payload)); got >= limit {
			t.Errorf("%s: reading and handling a %d-byte put allocates %d bytes, want under %d (no copy after the read)",
				c.name, len(payload), got, limit)
		}
		t.Logf("%s: a %d-byte put allocates %d bytes", c.name, len(payload), got)
		// The image serves its first entry from the buffer itself.
		snap := payload[c.head:]
		pfn := pagestore.PFN(binary.BigEndian.Uint64(snap[8:]))
		if binary.BigEndian.Uint16(snap[16:]) == 0xFFFF {
			t.Fatalf("%s: first entry is a zero page", c.name)
		}
		im, err := s.Store().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		snap[18] ^= 0xFF
		entry, err := im.AppendEntry(nil, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if entry[2] != snap[18] {
			t.Fatalf("%s: the image's entry for pfn %d does not share the buffer the frame was read into", c.name, pfn)
		}
		snap[18] ^= 0xFF
	}
	if cap(scratch.read) != readBufCap {
		t.Fatalf("puts changed the connection's receive buffer to %d bytes", cap(scratch.read))
	}
}

// TestHostLocalPutsKeepTheSnapshot: InstallImage and ApplyDiff, the
// host-local path, take ownership of the caller's snapshot as a wire put
// keeps the buffer its frame was read into. Each allocates less than one
// copy of the snapshot (the image's slots and table only), and the image
// serves its first entry from the snapshot's own bytes.
func TestHostLocalPutsKeepTheSnapshot(t *testing.T) {
	const (
		id    = 4
		alloc = 4 * units.MiB
	)
	s := NewServer(testSecret, nil)
	src, snap := makeSnapshot(t, alloc, 8, 512)
	epoch := src.NextEpoch()
	r := rng.New(9)
	for pfn := pagestore.PFN(0); pfn < 512; pfn += 3 {
		page := make([]byte, units.PageSize)
		for range 64 {
			page[r.Intn(len(page))] = byte(r.Uint64())
		}
		if err := src.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	diff, _, err := pagestore.EncodeDirtySince(src, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		snap []byte
		put  func() error
	}{
		{"InstallImage", snap, func() error { return s.InstallImage(id, alloc, snap) }},
		{"ApplyDiff", diff, func() error { return s.ApplyDiff(id, diff) }},
	} {
		if err := c.put(); err != nil {
			t.Fatal(err)
		}
		pfn := pagestore.PFN(binary.BigEndian.Uint64(c.snap[8:]))
		if binary.BigEndian.Uint16(c.snap[16:]) == 0xFFFF {
			t.Fatalf("%s: first entry is a zero page", c.name)
		}
		im, err := s.Store().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		c.snap[18] ^= 0xFF
		entry, err := im.AppendEntry(nil, pfn)
		if err != nil {
			t.Fatal(err)
		}
		if entry[2] != c.snap[18] {
			t.Fatalf("%s: the image's entry for pfn %d does not share the caller's snapshot", c.name, pfn)
		}
		c.snap[18] ^= 0xFF
		got := minAllocBytes(3, func() {
			if err := c.put(); err != nil {
				t.Fatal(err)
			}
		})
		if got >= uint64(len(c.snap)) {
			t.Errorf("%s of a %d-byte snapshot allocates %d bytes, want under one copy of it", c.name, len(c.snap), got)
		}
		t.Logf("%s: a %d-byte snapshot allocates %d bytes", c.name, len(c.snap), got)
	}
}

// minAllocBytes returns the fewest bytes fn allocated over reps runs:
// allocations by anything else running in the process only ever add.
func minAllocBytes(reps int, fn func()) uint64 {
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	for range reps {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// callRecorder is an exchanger that keeps the last call it was handed
// and answers it with an empty reply.
type callRecorder struct{ last call }

func (r *callRecorder) exchange(c call) ([]byte, error) {
	r.last = c
	return nil, nil
}

// TestSessionMACZeroAlloc is the upload MAC's allocation gate. It takes
// the segments PutImage, PutDiff and a staged chunk actually hand the
// client — the op's prefix, then its two caller slices — and requires
// that signing them and verifying the frame allocate nothing. The MAC
// copies at most a head of 32 bytes and passes the rest to GCM as one
// slice, so a shape whose remainder spans two segments fails here.
func TestSessionMACZeroAlloc(t *testing.T) {
	_, snap := makeSnapshot(t, 4*units.MiB, 11, 64)
	refs, err := pagestore.SplitSnapshotRefs(snap, 16<<10)
	if err != nil || len(refs) < 2 {
		t.Fatalf("split into %d chunks: %v", len(refs), err)
	}
	rec := &callRecorder{}
	o := ops{x: rec}
	staged := putHead{kind: msgPutImage, id: 1, uploadID: 2, seq: 1, alloc: 4 * units.MiB}
	shapes := map[string]func(){
		"PutImage": func() { o.PutImage(1, 4*units.MiB, snap) },
		"PutDiff":  func() { o.PutDiff(1, snap) },
		"PutChunk": func() { o.putChunk(staged, refs[1]) },
	}
	nonce := []byte("alloc-nonce-0000")
	client, server := sessionMAC(testSecret, nonce), sessionMAC(testSecret, nonce)
	for name, send := range shapes {
		send()
		c := rec.last
		if !c.mac {
			t.Fatalf("%s is not signed", name)
		}
		segs := [][]byte{c.prefix[:c.n], c.segs[0], c.segs[1]}
		payload := append(bytes.Join(segs, nil), make([]byte, macLen)...)
		round := func() {
			copy(payload[len(payload)-macLen:], client.compute(c.req, segs...))
			if _, err := server.verify(c.req, payload); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: %v", name, r)
				}
			}()
			round()
		}()
		if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
			t.Errorf("%s: signing and verifying an upload allocates %.1f times; want 0", name, allocs)
		}
	}
}
