//go:build !race

package memserver

import (
	"testing"

	"oasis/internal/pagestore"
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
