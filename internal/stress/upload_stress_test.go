package stress

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/memserver"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// encodeServerImage canonicalises the server's live image for a VM: the
// full-snapshot encoding is deterministic, so equal bytes ⇔ equal images.
func encodeServerImage(t *testing.T, srv *memserver.Server, vmid pagestore.VMID) []byte {
	t.Helper()
	im, err := srv.Store().Get(vmid)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamedUploadUnderChaos drives chunked streaming uploads while the
// fault injector kills connections and tears frames mid-upload. The
// crash-atomicity invariant under test: at every instant the server's
// image for the VM is EITHER the previous version or the new one, never a
// mixture — a failed or half-finished upload leaves the pre-upload
// snapshot serving reads, and a committed one is complete.
func TestStreamedUploadUnderChaos(t *testing.T) {
	const vmid = pagestore.VMID(63)
	const alloc = 8 * units.MiB

	serverInj := faultinject.New(17, faultinject.Config{ReadErr: 0.05, WriteErr: 0.04, PartialWrite: 0.04})
	srv := memserver.NewServer(secret, nil)
	srv.SetConnWrapper(serverInj.WrapConn)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := bound.String()

	// version builds generation g of the guest image: every page carries
	// the generation in its bytes, so a torn image (some pages old, some
	// new) cannot encode to either canonical form.
	version := func(g byte) []byte {
		im := pagestore.NewImage(alloc)
		page := make([]byte, units.PageSize)
		for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
			for i := 0; i < len(page); i += 16 {
				page[i] = g
				page[i+1] = byte(pfn % 251)
			}
			if err := im.Write(pfn, page); err != nil {
				t.Fatal(err)
			}
		}
		snap, _, err := pagestore.EncodeAll(im)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	// Install generation 0 on a calm sea as the pre-upload snapshot.
	serverInj.SetEnabled(false)
	if err := srv.InstallImage(vmid, alloc, version(0)); err != nil {
		t.Fatal(err)
	}
	canon := make(map[int][]byte)
	canon[0] = encodeServerImage(t, srv, vmid)

	p, err := memserver.DialPool(addr, secret, memserver.PoolConfig{
		Size:       4,
		Resilience: stormResilience(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	clean := func() *memserver.ClientPool {
		c, err := memserver.DialPool(addr, secret, memserver.PoolConfig{Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	serverInj.SetEnabled(true)
	opts := memserver.PutOptions{Streams: 4, ChunkBytes: 32 * int(units.PageSize)}
	committed := 0
	for g := 1; g <= 6; g++ {
		snap := version(byte(g))
		wantNew := func() []byte {
			im := pagestore.NewImage(alloc)
			if err := pagestore.ApplySnapshot(im, snap); err != nil {
				t.Fatal(err)
			}
			data, _, err := pagestore.EncodeAll(im)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}()
		canon[g] = wantNew

		err := p.StreamImage(vmid, alloc, snap, opts)
		got := encodeServerImage(t, srv, vmid)
		if err != nil {
			// Failed upload: the server must still hold, untorn, the last
			// committed generation. (A lost commit REPLY can leave the new
			// image committed even though the client saw an error — both
			// canonical forms are acceptable; a mixture never is.)
			switch {
			case bytes.Equal(got, canon[committed]):
			case bytes.Equal(got, wantNew):
				committed = g
			default:
				t.Fatalf("gen %d failed upload tore the image", g)
			}
			continue
		}
		if !bytes.Equal(got, wantNew) {
			t.Fatalf("gen %d committed upload is not the new image", g)
		}
		committed = g
	}

	// Storm over: reads through a clean client serve the last committed
	// generation, byte-exact.
	serverInj.SetEnabled(false)
	c := clean()
	defer c.Close()
	im := pagestore.NewImage(alloc)
	if err := pagestore.ApplySnapshot(im, version(byte(committed))); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []pagestore.PFN{0, 100, 500} {
		want, _ := im.Read(pfn)
		got, err := c.GetPage(vmid, pfn)
		if err != nil {
			t.Fatalf("read after storm: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d: post-storm read does not match committed generation %d", pfn, committed)
		}
	}

	// A mid-upload abandonment (no commit at all) must leave the image
	// byte-identical: stream a new generation over a clean connection
	// that carries the handshake and chunk 0, which opens the upload
	// (frame heads and MACs are well under 1 KiB), and breaks inside
	// chunk 1, so the client walks away without committing.
	before := encodeServerImage(t, srv, vmid)
	snap := version(9)
	chunks, err := pagestore.SplitSnapshot(snap, opts.ChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 || len(chunks[1]) < 2<<10 {
		t.Fatalf("want a chunk 1 of 2 KiB or more, got %d chunks", len(chunks))
	}
	// Only the first connection is made: a re-issued chunk finds the
	// server unreachable instead of a fresh byte budget.
	dials := 0
	cut, err := memserver.DialPool(addr, secret, memserver.PoolConfig{Size: 1, Resilience: memserver.ResilientConfig{
		Network: netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
			if dials++; dials > 1 {
				return nil, errors.New("server unreachable")
			}
			raw, err := network.TCP.Dial(addr, deadline)
			if err != nil {
				return nil, err
			}
			return &cutConn{Conn: raw, left: len(chunks[0]) + 1<<10}, nil
		}),
		BaseBackoff: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()
	if err := cut.StreamImage(vmid, alloc, snap, opts); err == nil {
		t.Fatal("an upload cut inside chunk 1 reported success")
	}
	if got := encodeServerImage(t, srv, vmid); !bytes.Equal(got, before) {
		t.Fatal("abandoned upload perturbed the live image")
	}
}

// cutConn is a connection that carries left bytes out and then breaks:
// every later write fails and closes it.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) > c.left {
		c.Conn.Close()
		return 0, errors.New("connection cut")
	}
	c.left -= len(p)
	return c.Conn.Write(p)
}
