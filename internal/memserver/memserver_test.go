package memserver

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
)

var testSecret = []byte("oasis-test-secret")

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer(testSecret, t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// netFunc is a network whose dials run the function and whose listens
// are TCP's: tests count, park, refuse or wrap a lane's dials with it.
type netFunc func(addr string, deadline time.Time) (net.Conn, error)

func (f netFunc) Dial(addr string, deadline time.Time) (net.Conn, error) { return f(addr, deadline) }
func (netFunc) Listen(addr string) (net.Listener, error)                 { return network.TCP.Listen(addr) }

// noDial is the network of a pool that must never dial.
var noDial = netFunc(func(string, time.Time) (net.Conn, error) { panic("no dialing in this test") })

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(network.TCP, addr, testSecret, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func makeSnapshot(t *testing.T, alloc units.Bytes, seed uint64, pages int) (*pagestore.Image, []byte) {
	t.Helper()
	r := rng.New(seed)
	im := pagestore.NewImage(alloc)
	for i := 0; i < pages; i++ {
		p := make([]byte, units.PageSize)
		for j := 0; j < 64; j++ {
			p[r.Intn(len(p))] = byte(r.Uint64())
		}
		if err := im.Write(pagestore.PFN(i), p); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	return im, snap
}

func TestUploadAndFetch(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	src, snap := makeSnapshot(t, 16*units.MiB, 5, 50)
	if err := c.PutImage(1001, 16*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []pagestore.PFN{0, 10, 49} {
		want, _ := src.Read(pfn)
		got, err := c.GetPage(1001, pfn)
		if err != nil {
			t.Fatalf("GetPage(%d): %v", pfn, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d mismatch", pfn)
		}
	}
	// Untouched page reads as zeros.
	z, err := c.GetPage(1001, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !pagestore.IsZeroPage(z) {
		t.Fatal("untouched page not zero")
	}
}

func TestGetPageErrors(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.GetPage(9999, 0); err == nil {
		t.Error("unknown VM served")
	}
	_, snap := makeSnapshot(t, 1*units.MiB, 2, 4)
	if err := c.PutImage(7, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPage(7, 1<<20); err == nil {
		t.Error("out-of-range pfn served")
	}
	// The connection survives error replies.
	if _, err := c.GetPage(7, 0); err != nil {
		t.Errorf("connection broken after error reply: %v", err)
	}
}

// TestIsUnknownVM drives a real server into the refusal the predicate
// names, so the text pagestore formats and the matcher cannot drift
// apart, and checks it stays false for refusals of other kinds.
func TestIsUnknownVM(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, snap := makeSnapshot(t, 1*units.MiB, 2, 4)

	_, err := c.GetPage(9999, 0)
	if !IsRemoteError(err) || !IsUnknownVM(err) {
		t.Errorf("GetPage of an absent VM: %v, want a remote unknown-VM error", err)
	}
	err = c.PutDiff(9999, snap)
	if !IsRemoteError(err) || !IsUnknownVM(err) {
		t.Errorf("PutDiff to an absent VM: %v, want a remote unknown-VM error", err)
	}

	if err := c.PutImage(7, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	_, err = c.GetPage(7, 1<<20)
	if !IsRemoteError(err) || IsUnknownVM(err) {
		t.Errorf("out-of-range pfn of a known VM: %v, want a remote error that is not unknown-VM", err)
	}
	if IsUnknownVM(nil) || IsUnknownVM(ErrClientBroken) {
		t.Error("IsUnknownVM matched a non-remote error")
	}
}

func TestPutDiff(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	src, snap := makeSnapshot(t, 4*units.MiB, 3, 20)
	if err := c.PutImage(5, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	// Dirty a few pages and push only the delta.
	base := src.NextEpoch()
	newData := bytes.Repeat([]byte{0x5A}, int(units.PageSize))
	if err := src.Write(3, newData); err != nil {
		t.Fatal(err)
	}
	diff, n, err := pagestore.EncodeDirtySince(src, base)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("diff has %d pages, want 1", n)
	}
	if err := c.PutDiff(5, diff); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetPage(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("diff not applied")
	}
	if err := c.PutDiff(42, diff); err == nil {
		t.Error("diff for unknown VM accepted")
	}
}

func TestDelete(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, snap := makeSnapshot(t, 1*units.MiB, 4, 4)
	if err := c.PutImage(9, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPage(9, 0); err == nil {
		t.Error("deleted VM still served")
	}
}

func TestSetServing(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, snap := makeSnapshot(t, 1*units.MiB, 6, 4)
	if err := c.PutImage(2, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	if err := c.SetServing(false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPage(2, 0); err == nil {
		t.Error("page served while daemon stopped")
	} else if !strings.Contains(err.Error(), "not serving") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := c.SetServing(true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetPage(2, 0); err != nil {
		t.Errorf("page not served after restart: %v", err)
	}
}

func TestStats(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, snap := makeSnapshot(t, 1*units.MiB, 8, 10)
	if err := c.PutImage(3, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.GetPage(3, pagestore.PFN(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.VMs != 1 || st.PagesServed != 5 || st.PagesUploaded != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDiffPathsCountEntriesAdopted: the same diff — four pages the image
// already holds, rewritten — counts four uploaded pages whichever way it
// arrives: one PutDiff request, a streamed diff, or the host-local path.
// PutDiff used to count the change in non-zero pages instead, here none.
func TestDiffPathsCountEntriesAdopted(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	im, snap := makeSnapshot(t, 1*units.MiB, 9, 10)
	since := im.NextEpoch()
	for pfn := pagestore.PFN(2); pfn < 6; pfn++ {
		if err := im.Write(pfn, bytes.Repeat([]byte{byte(pfn)}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
	}
	diff, pages, err := pagestore.EncodeDirtySince(im, since)
	if err != nil || pages != 4 {
		t.Fatalf("diff of %d pages (%v), want 4", pages, err)
	}
	for i, path := range []struct {
		name string
		put  func(pagestore.VMID) error
	}{
		{"PutDiff", func(id pagestore.VMID) error { return c.PutDiff(id, diff) }},
		{"StreamDiff", func(id pagestore.VMID) error { return c.StreamDiff(id, diff, PutOptions{Streams: 2}) }},
		{"ApplyDiff", func(id pagestore.VMID) error { return srv.ApplyDiff(id, diff) }},
	} {
		id := pagestore.VMID(i + 1)
		if err := srv.InstallImage(id, 1*units.MiB, snap); err != nil {
			t.Fatal(err)
		}
		before := srv.StatsSnapshot().PagesUploaded
		if err := path.put(id); err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if got := srv.StatsSnapshot().PagesUploaded - before; got != 4 {
			t.Errorf("%s counted %d uploaded pages for a 4-page diff, want 4", path.name, got)
		}
	}
}

func TestAuthRejectsBadSecret(t *testing.T) {
	_, addr := startServer(t)
	if _, err := Dial(network.TCP, addr, []byte("wrong"), 2*time.Second); err == nil {
		t.Fatal("bad secret accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 12, 100)
	if err := NewWithStoreImage(s, 77, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			c, err := Dial(network.TCP, addr, testSecret, 2*time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				pfn := pagestore.PFN((g*25 + i) % 100)
				want, _ := src.Read(pfn)
				got, err := c.GetPage(77, pfn)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, want) {
					done <- errRemote("page mismatch")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.StatsSnapshot().PagesServed; got != 100 {
		t.Fatalf("PagesServed = %d, want 100", got)
	}
}

type errRemote string

func (e errRemote) Error() string { return string(e) }

// NewWithStoreImage installs a snapshot directly into a server's store,
// bypassing the network — the co-located SAS path a host uses.
func NewWithStoreImage(s *Server, id pagestore.VMID, alloc units.Bytes, snapshot []byte) error {
	im := pagestore.NewImage(alloc)
	if err := pagestore.ApplySnapshot(im, snapshot); err != nil {
		return err
	}
	s.Store().Put(id, im)
	return nil
}

func TestGetPagesBatch(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	src, snap := makeSnapshot(t, 8*units.MiB, 21, 60)
	if err := c.PutImage(88, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	pfns := []pagestore.PFN{0, 5, 59, 100 /* zero page */}
	got, err := c.GetPages(88, pfns)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pfns) {
		t.Fatalf("got %d pages, want %d", len(got), len(pfns))
	}
	for _, pfn := range pfns {
		want, _ := src.Read(pfn)
		if !bytes.Equal(got[pfn], want) {
			t.Fatalf("pfn %d mismatch", pfn)
		}
	}
	// Empty batch is a no-op.
	empty, err := c.GetPages(88, nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %d", err, len(empty))
	}
	// Unknown VM fails.
	if _, err := c.GetPages(999, pfns); err == nil {
		t.Error("batch for unknown VM served")
	}
}

func TestGetPagesBatchLimit(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, snap := makeSnapshot(t, 1*units.MiB, 30, 4)
	if err := c.PutImage(6, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	big := make([]pagestore.PFN, maxBatchPages+1)
	if _, err := c.GetPages(6, big); err == nil {
		t.Error("oversized batch accepted")
	}
	// Connection survives the rejection.
	if _, err := c.GetPage(6, 0); err != nil {
		t.Errorf("connection broken after batch rejection: %v", err)
	}
}

// TestPersistenceAcrossRestart: with a persist directory, uploaded images
// survive a daemon restart — the durability the prototype gets from its
// shared SAS drive.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := NewServer(testSecret, t.Logf)
	if err := s1.SetPersistDir(dir); err != nil {
		t.Fatal(err)
	}
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(network.TCP, addr.String(), testSecret, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	src, snap := makeSnapshot(t, 4*units.MiB, 51, 25)
	if err := c.PutImage(42, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	// A differential update must be mirrored too.
	base := src.NextEpoch()
	mod := bytes.Repeat([]byte{0xAB}, int(units.PageSize))
	if err := src.Write(3, mod); err != nil {
		t.Fatal(err)
	}
	diff, _, err := pagestore.EncodeDirtySince(src, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutDiff(42, diff); err != nil {
		t.Fatal(err)
	}
	// Also a VM that gets deleted: its file must disappear.
	if err := c.PutImage(43, 1*units.MiB, snapOf(t, 1*units.MiB, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(43); err != nil {
		t.Fatal(err)
	}
	c.Close()
	s1.Close()

	// Restart: a fresh daemon over the same directory serves the images.
	s2 := NewServer(testSecret, t.Logf)
	if err := s2.SetPersistDir(dir); err != nil {
		t.Fatal(err)
	}
	n, err := s2.LoadPersisted()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d VMs, want 1 (deleted VM must not return)", n)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := Dial(network.TCP, addr2.String(), testSecret, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.GetPage(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mod) {
		t.Fatal("diff-updated page lost across restart")
	}
	want, _ := src.Read(10)
	got, err = c2.GetPage(42, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("original page lost across restart")
	}
	if _, err := c2.GetPage(43, 0); err == nil {
		t.Fatal("deleted VM resurrected by restart")
	}
}

func snapOf(t *testing.T, alloc units.Bytes, pages int) []byte {
	t.Helper()
	_, snap := makeSnapshot(t, alloc, 99, pages)
	return snap
}
