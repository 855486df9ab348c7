package memserver

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/lzf"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// Tests of the server's storage: pages are kept in the form they
// arrived, every put is checked whole before it changes anything, and a
// get is a copy.

// frameSnap frames entries (each u64 pfn | u16 token | payload) as a v1
// snapshot.
func frameSnap(entries ...[]byte) []byte {
	out := binary.BigEndian.AppendUint32([]byte("OAPS"), uint32(len(entries)))
	return append(out, bytes.Join(entries, nil)...)
}

func snapEntry(pfn pagestore.PFN, token uint16, payload []byte) []byte {
	e := binary.BigEndian.AppendUint64(nil, uint64(pfn))
	return append(binary.BigEndian.AppendUint16(e, token), payload...)
}

// pageEntry is the encoder's own entry for a page.
func pageEntry(pfn pagestore.PFN, page []byte) []byte {
	return appendPageEntry(nil, pfn, page)
}

// rawReply sends one request and returns the reply payload undecoded.
func rawReply(t *testing.T, c *ClientPool, req, want byte, payload []byte) []byte {
	t.Helper()
	cl := call{op: "raw", req: req, want: want}
	cl.segs[0] = payload
	reply, err := c.exchange(cl)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), reply...)
}

func getPageRequest(id pagestore.VMID, pfn pagestore.PFN) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, uint32(id)), uint64(pfn))
}

// TestHostilePutPaths drives one corrupt entry at a time, behind a good
// one, through every way a snapshot reaches an image. Each path must
// refuse it with the text the decoding server of PR 23 gave, over the
// wire as a msgError that leaves the connection usable, and the image
// stored before must still read back unchanged — including the good
// entry's page, which a put that applied as it parsed would have
// changed. Dictionary input, which that server decoded, is refused by
// name: a dictionary token with its page, a dictionary snapshot by its
// header.
func TestHostilePutPaths(t *testing.T) {
	const (
		id    = pagestore.VMID(9)
		alloc = 1 * units.MiB
	)
	good := pageEntry(3, testPage(1))
	short := lzf.Compress(nil, make([]byte, 100))
	dictHeader := binary.BigEndian.AppendUint32([]byte("OAPD"), 1)
	dictHeader = append(binary.BigEndian.AppendUint32(dictHeader, 4), "dict"...)
	cases := []struct {
		name, want string
		bad        []byte
		snap       []byte // the whole snapshot, when not good then bad
	}{
		{"truncated literal", "pagestore: page 4: lzf: corrupt compressed data",
			snapEntry(4, 2, []byte{0x05, 'a'}), nil},
		{"back-reference before start", "pagestore: page 4: lzf: corrupt compressed data",
			snapEntry(4, 4, []byte{0x00, 'a', 0x20, 0x10}), nil},
		{"wrong output length", "pagestore: page 4: lzf: corrupt compressed data: got 100 bytes, want 4096",
			snapEntry(4, uint16(len(short)), short), nil},
		{"out-of-range pfn", "pagestore: pfn beyond allocation: pfn 256, allocation 256 pages",
			pageEntry(256, testPage(2)), nil},
		{"raw cut short", "pagestore: truncated page 4",
			snapEntry(4, 0x9000, make([]byte, 100)), nil},
		{"raw longer than a page", "pagestore: page data 5000 bytes exceeds page size",
			snapEntry(4, 0x8000|5000, make([]byte, 5000)), nil},
		{"dict token without dictionary", "pagestore: page 4: dictionary-compressed entry (token 0x4002) is not supported",
			snapEntry(4, 0x4000|2, []byte{0x00, 'a'}), nil},
		{"dictionary snapshot header", `pagestore: dictionary snapshot ("OAPD") is not supported`,
			nil, append(dictHeader, good...)},
	}
	const remote = "memserver: remote: "
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t)
			c := dial(t, addr)
			_, base := makeSnapshot(t, alloc, 2, 8)
			if err := c.PutImage(id, alloc, base); err != nil {
				t.Fatal(err)
			}
			before := serverImageBytes(t, srv, id)
			snap := tc.snap
			if snap == nil {
				snap = frameSnap(good, tc.bad)
			}
			chunk := pagestore.ChunkRef{Body: snap}

			check := func(path, want string, err error) {
				t.Helper()
				if err == nil || err.Error() != want {
					t.Errorf("%s: error %q, want %q", path, err, want)
				}
				if want[:len(remote)] == remote && !IsRemoteError(err) {
					t.Errorf("%s: %v did not arrive as a msgError reply", path, err)
				}
				if got := serverImageBytes(t, srv, id); !bytes.Equal(got, before) {
					t.Fatalf("%s: a refused put changed the stored image", path)
				}
			}
			check("msgPutImage", remote+tc.want, c.PutImage(id, alloc, snap))
			check("msgPutDiff", remote+tc.want, c.PutDiff(id, snap))
			check("InstallImage", tc.want, srv.InstallImage(id, alloc, snap))
			check("ApplyDiff", tc.want, srv.ApplyDiff(id, snap))

			imageChunk := putHead{kind: msgPutImage, id: id, uploadID: 70, alloc: alloc}
			check("PutChunk image", remote+"chunk 0 of upload 70 for vm 0009: "+tc.want, c.putChunk(imageChunk, chunk))
			check("PutCommit image", remote+"upload 70 missing chunk 0/1", c.PutCommit(id, 70, 1))

			if err := c.putChunk(putHead{kind: msgPutDiff, id: id, uploadID: 71}, chunk); err != nil {
				t.Fatalf("a diff chunk is only held until commit, got %v", err)
			}
			check("PutCommit diff", remote+tc.want, c.PutCommit(id, 71, 1))

			// The connection took seven error replies and still serves.
			if _, err := c.GetPage(id, 0); err != nil {
				t.Fatalf("connection unusable after refused puts: %v", err)
			}
		})
	}
}

// TestPagesReplyRefusesDictionaryToken: the client refuses a batch reply
// entry with a dictionary token by name, with its page, before the
// 16 KiB+ length that token implies as a plain one is trusted.
func TestPagesReplyRefusesDictionaryToken(t *testing.T) {
	reply := appendPageEntry(binary.BigEndian.AppendUint32(nil, 2), 3, testPage(1))
	reply = append(reply, snapEntry(4, 0x4000|2, []byte{0x00, 'a'})...)
	const want = "memserver: batch page 4: dictionary-compressed entry (token 0x4002) is not supported"
	if _, err := parsePagesReply(reply); err == nil || err.Error() != want {
		t.Fatalf("parsePagesReply: %v, want %q", err, want)
	}
}

// TestShortRawEntryIsPadded: a raw entry shorter than a page is what the
// format allows and the decoding server accepted, zero-padded. It cannot
// be served as it arrived (a msgPage raw body is a whole page), so it is
// the one plain entry kept as a page.
func TestShortRawEntryIsPadded(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.InstallImage(5, 1*units.MiB, frameSnap(snapEntry(2, 0x8000|3, []byte{7, 8, 9}), snapEntry(3, 0x8000|2, []byte{0, 0}))); err != nil {
		t.Fatal(err)
	}
	im, _ := srv.Store().Get(5)
	want := make([]byte, units.PageSize)
	copy(want, []byte{7, 8, 9})
	if got, _ := im.Read(2); !bytes.Equal(got, want) {
		t.Fatal("short raw entry not zero-padded to a page")
	}
	if im.TouchedPages() != 1 {
		t.Fatalf("%d touched pages, want 1 (the all-zero raw entry is a zero page)", im.TouchedPages())
	}
}

// uploadShapes are the ways a snapshot reaches a server image over the
// wire, for tests that hold all of them to one property.
var uploadShapes = []struct {
	name string
	put  func(c *ClientPool, id pagestore.VMID, alloc units.Bytes, snap []byte) error
}{
	{"image", func(c *ClientPool, id pagestore.VMID, alloc units.Bytes, snap []byte) error {
		return c.PutImage(id, alloc, snap)
	}},
	{"diff", func(c *ClientPool, id pagestore.VMID, alloc units.Bytes, snap []byte) error {
		if err := c.PutImage(id, alloc, frameSnap()); err != nil {
			return err
		}
		return c.PutDiff(id, snap)
	}},
	{"chunked image", func(c *ClientPool, id pagestore.VMID, alloc units.Bytes, snap []byte) error {
		return c.StreamImage(id, alloc, snap, PutOptions{ChunkBytes: 16 << 10})
	}},
	{"chunked diff", func(c *ClientPool, id pagestore.VMID, alloc units.Bytes, snap []byte) error {
		if err := c.PutImage(id, alloc, frameSnap()); err != nil {
			return err
		}
		return c.StreamDiff(id, snap, PutOptions{ChunkBytes: 16 << 10})
	}},
}

// TestServedEntryIsStoredEntry: what the server sends for a page is the
// entry it was sent, byte for byte, for every entry of an honest upload
// (plain-lzf, raw and zero), whichever way it was uploaded.
func TestServedEntryIsStoredEntry(t *testing.T) {
	const alloc = 2 * units.MiB
	r := rng.New(17)
	src := pagestore.NewImage(alloc)
	template := testPage(40)
	for pfn := pagestore.PFN(0); pfn < 120; pfn++ {
		page := make([]byte, units.PageSize)
		switch pfn % 4 {
		case 0: // near-template
			copy(page, template)
			page[r.Intn(len(page))] ^= 0x55
		case 1: // incompressible: a raw entry
			for i := range page {
				page[i] = byte(r.Uint64())
			}
		case 2: // dirtied to zero: a zero-token entry
		default:
			copy(page, testPage(uint64(pfn)))
		}
		if err := src.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	pfns := src.DirtySince(0)
	snap, err := pagestore.EncodePages(src, pfns)
	if err != nil {
		t.Fatal(err)
	}
	// sent maps each pfn to its entry (token | payload) in snap.
	sent := map[pagestore.PFN][]byte{}
	for off := 8; off < len(snap); {
		pfn := pagestore.PFN(binary.BigEndian.Uint64(snap[off:]))
		n, err := pagestore.PageBodyLen(binary.BigEndian.Uint16(snap[off+8:]))
		if err != nil {
			t.Fatal(err)
		}
		sent[pfn] = snap[off+8 : off+10+n]
		off += 10 + n
	}
	for _, shape := range uploadShapes {
		t.Run("plain/"+shape.name, func(t *testing.T) {
			_, addr := startServer(t)
			c := dial(t, addr)
			const id = 77
			if err := shape.put(c, id, alloc, snap); err != nil {
				t.Fatal(err)
			}
			batch := rawReply(t, c, msgGetPages, msgPages, encodeGetPagesRequest(id, pfns))
			if n := binary.BigEndian.Uint32(batch); int(n) != len(pfns) {
				t.Fatalf("batch reply holds %d pages, want %d", n, len(pfns))
			}
			off := 4
			for _, pfn := range pfns {
				single := rawReply(t, c, msgGetPage, msgPage, getPageRequest(id, pfn))
				if got := pagestore.PFN(binary.BigEndian.Uint64(batch[off:])); got != pfn {
					t.Fatalf("batch entry for pfn %d where %d was asked", got, pfn)
				}
				inBatch := batch[off+8 : off+8+len(single)]
				off += 8 + len(single)
				if !bytes.Equal(inBatch, single) {
					t.Fatalf("pfn %d: msgPages and msgPage entries differ", pfn)
				}
				want, _ := src.Read(pfn)
				got, err := pagestore.DecodePage(binary.BigEndian.Uint16(single), single[2:])
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("pfn %d: served entry does not decode to the source page: %v", pfn, err)
				}
				if !bytes.Equal(single, sent[pfn]) {
					t.Fatalf("pfn %d: served entry differs from the uploaded one", pfn)
				}
			}
			if off != len(batch) {
				t.Fatalf("%d stray bytes in the batch reply", len(batch)-off)
			}
		})
	}
}

// TestCompactionBoundsGarbage rewrites the same 256 pages 200 times.
// Each diff arrives in a buffer the image keeps and leaves the previous
// round's entries dead in theirs; compaction must hold what is kept to
// twice what is referenced plus the one diff that tipped it over.
func TestCompactionBoundsGarbage(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServer(testSecret, t.Logf)
	srv.SetMetricsRegistry(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr.String())

	const (
		id    = 12
		alloc = 4 * units.MiB
		pages = 256
	)
	src := pagestore.NewImage(alloc)
	if err := c.PutImage(id, alloc, frameSnap()); err != nil {
		t.Fatal(err)
	}
	im, _ := srv.Store().Get(id)
	gauge := func(name string) int64 { return int64(reg.Gauge(name, "").Value()) }
	var maxDiff int64
	for round := 0; round < 200; round++ {
		epoch := src.NextEpoch()
		for pfn := pagestore.PFN(0); pfn < pages; pfn++ {
			if err := src.Write(pfn, testPage(uint64(round*pages)+uint64(pfn))); err != nil {
				t.Fatal(err)
			}
		}
		diff, _, err := pagestore.EncodeDirtySince(src, epoch)
		if err != nil {
			t.Fatal(err)
		}
		maxDiff = max(maxDiff, int64(len(diff)))
		if err := c.PutDiff(id, diff); err != nil {
			t.Fatal(err)
		}
		live, held := im.WireBytes()
		if live == 0 || held > 2*live+maxDiff {
			t.Fatalf("round %d: %d bytes held for %d referenced (largest diff %d)", round, held, live, maxDiff)
		}
		if gl, gh := gauge("oasis_memserver_store_live_bytes"), gauge("oasis_memserver_store_held_bytes"); gl != live || gh != held {
			t.Fatalf("round %d: gauges say %d live / %d held, image says %d / %d", round, gl, gh, live, held)
		}
	}
	// A full rewrite leaves a whole image of garbage, so it may compact
	// every time, and must at least every other time.
	if n := reg.Counter("oasis_memserver_store_compactions_total", "").Value(); n < 100 || n > 200 {
		t.Fatalf("%v compactions in 200 full rewrites, want 100 to 200", n)
	}
	for pfn := pagestore.PFN(0); pfn < pages; pfn++ {
		want, _ := src.Read(pfn)
		if got, err := c.GetPage(id, pfn); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("pfn %d wrong after 200 rewrites: %v", pfn, err)
		}
	}
	// A closed server's share of the process-wide gauges is withdrawn.
	srv.Close()
	if gl, gh := gauge("oasis_memserver_store_live_bytes"), gauge("oasis_memserver_store_held_bytes"); gl != 0 || gh != 0 {
		t.Fatalf("gauges read %d / %d after Close", gl, gh)
	}
}

// TestGetPagesDuringDiffAndCompaction: readers batch-fetch a window of
// pages while a writer rewrites the whole window, diff after diff, every
// page of round r filled with r. Diffs are adopted whole under the image
// lock and a batch is copied out under the same lock, so every batch
// must be one round's pages — never a torn entry, never two rounds
// mixed, never a round older than one already seen — compactions
// included.
func TestGetPagesDuringDiffAndCompaction(t *testing.T) {
	srv, addr := startServer(t)
	const (
		id     = 21
		alloc  = 1 * units.MiB
		pages  = 64
		rounds = 150
	)
	roundSnap := func(round byte) []byte {
		entries := make([][]byte, pages)
		for pfn := range entries {
			page := bytes.Repeat([]byte{round}, int(units.PageSize))
			page[0] = byte(pfn) // distinct pages, so entries differ in length across pfns
			for i := 1; i < 64+pfn; i++ {
				page[i*7] = round ^ byte(i)
			}
			entries[pfn] = pageEntry(pagestore.PFN(pfn), page)
		}
		return frameSnap(entries...)
	}
	if err := srv.InstallImage(id, alloc, roundSnap(1)); err != nil {
		t.Fatal(err)
	}
	pfns := make([]pagestore.PFN, pages)
	for i := range pfns {
		pfns[i] = pagestore.PFN(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		c := dial(t, addr)
		go func() {
			defer wg.Done()
			last := byte(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := c.GetPages(id, pfns)
				if err != nil {
					t.Errorf("GetPages: %v", err)
					return
				}
				round := got[0][1]
				for pfn, page := range got {
					if page[1] != round || page[len(page)-1] != round || page[0] != byte(pfn) {
						t.Errorf("batch mixes rounds %d and %d (pfn %d)", round, page[1], pfn)
						return
					}
				}
				if round < last {
					t.Errorf("round %d served after round %d", round, last)
					return
				}
				last = round
			}
		}()
	}
	w := dial(t, addr)
	for round := 2; round <= rounds; round++ {
		if err := w.PutDiff(id, roundSnap(byte(round))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	im, _ := srv.Store().Get(id)
	if live, held := im.WireBytes(); held > 3*live {
		t.Fatalf("no compaction ran: %d held for %d live", held, live)
	}
}

// TestDialPoolRetriesFirstDial: the eager first dial rides the lane's
// retry — a handshake reset on the way in is one failed attempt, not a
// failed DialPool — while a server that answers and refuses is final at
// once.
func TestDialPoolRetriesFirstDial(t *testing.T) {
	_, addr := startServer(t)
	dials := 0
	reset := faultinject.New(1, faultinject.Config{ReadErr: 1})
	cfg := fastResilient()
	cfg.Network = netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		conn, err := network.TCP.Dial(addr, deadline)
		if err != nil {
			return nil, err
		}
		if dials++; dials == 1 {
			conn = reset.WrapConn(conn) // the challenge read fails and closes the connection
		}
		return conn, nil
	})
	p, err := DialPool(addr, testSecret, PoolConfig{Size: 2, Resilience: cfg})
	if err != nil {
		t.Fatalf("DialPool gave up on the first dial: %v", err)
	}
	defer p.Close()
	if st := p.ResilienceStats(); dials != 2 || st.Retries != 1 || st.Failures != 1 {
		t.Fatalf("%d dials, stats %+v; want the second dial to be the first retry", dials, st)
	}
	if _, err := p.Stats(); err != nil {
		t.Fatal(err)
	}

	dials = 0
	cfg.Network = netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		dials++
		return network.TCP.Dial(addr, deadline)
	})
	if _, err := DialPool(addr, []byte("not the secret"), PoolConfig{Resilience: cfg}); !IsRemoteError(err) || dials != 1 {
		t.Fatalf("bad secret: %v after %d dials, want the server's refusal after one", err, dials)
	}
}

// TestHeldBytesArePutBytes: on one connection a large PutImage grows the
// receive buffer and a small PutDiff follows it. The held-bytes gauge
// must read exactly the two snapshots' bytes. (That the bytes held are
// the buffer each frame was read into, not the connection's larger
// one, is TestPutKeepsTheBufferItWasReadInto's check.)
func TestHeldBytesArePutBytes(t *testing.T) {
	const (
		id    = 6
		alloc = 16 * units.MiB
	)
	reg := telemetry.NewRegistry()
	srv := NewServer(testSecret, t.Logf)
	srv.SetMetricsRegistry(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr.String())
	img := rawSnapshot(t, alloc, 21, 600)
	if err := c.PutImage(id, alloc, img); err != nil {
		t.Fatal(err)
	}
	src := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); pfn < 4; pfn++ {
		if err := src.Write(pfn, testPage(uint64(pfn))); err != nil {
			t.Fatal(err)
		}
	}
	diff, _, err := pagestore.EncodeAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutDiff(id, diff); err != nil {
		t.Fatal(err)
	}
	want := int64(len(img) + len(diff))
	if held := int64(reg.Gauge("oasis_memserver_store_held_bytes", "").Value()); held != want {
		t.Fatalf("store holds %d bytes after a %d-byte image and a %d-byte diff, want %d",
			held, len(img), len(diff), want)
	}
	im, err := srv.Store().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for pfn := pagestore.PFN(0); pfn < 4; pfn++ {
		want, _ := src.Read(pfn)
		if got, err := im.Read(pfn); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("pfn %d is not the diff's page (%v)", pfn, err)
		}
	}
}
