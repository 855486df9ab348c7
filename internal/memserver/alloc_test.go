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
// frame header, then the body and its session MAC trailer.
func putFrame(mac *sessionHMAC, typ byte, body []byte) []byte {
	payload := append(bytes.Clone(body), mac.compute(body)...)
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
		return append(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, id), uint64(alloc)), snap...)
	}
	cases := []struct {
		name string
		typ  byte
		head int // request bytes before the snapshot
		body []byte
	}{
		{"image", msgPutImage, 12, imageBody(small)},
		{"large-image", msgPutImage, 12, imageBody(large)},
		{"diff", msgPutDiff, 4, append(binary.BigEndian.AppendUint32(nil, id), diff...)},
	}
	scratch.read = make([]byte, 0, readBufCap) // a connection warm from earlier frames
	for _, c := range cases {
		frame := putFrame(client, c.typ, c.body)
		var payload []byte
		put := func() {
			typ, p, err := readFrameReuse(bytes.NewReader(frame), &scratch.hdr, &scratch.read)
			if err != nil || typ != c.typ {
				t.Fatalf("%s: read frame type %d: %v", c.name, typ, err)
			}
			if err := s.handle(conn, typ, p, scratch); err != nil {
				t.Fatal(err)
			}
			payload = p
		}
		got := minAllocBytes(3, put)
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
