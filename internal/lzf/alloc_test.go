//go:build !race

package lzf

import "testing"

// The race detector's instrumentation adds allocations of its own, so
// the exact counts are held in uninstrumented builds only.

// TestCodecAllocs is the allocation gate: nothing when the caller owns
// dst (the snapshot encoders, the page-serving reply, DecodeSnapshot),
// and exactly the page when it passes nil (pagestore.DecodePage).
func TestCodecAllocs(t *testing.T) {
	page := benchPage()
	comp := make([]byte, 0, CompressBound(len(page)))
	if n := testing.AllocsPerRun(100, func() { comp = Compress(comp[:0], page) }); n != 0 {
		t.Errorf("Compress into an owned dst allocates %.0f times, want 0", n)
	}
	dst := make([]byte, 0, len(page))
	if n := testing.AllocsPerRun(100, func() { Decompress(dst[:0], comp, len(page)) }); n != 0 {
		t.Errorf("Decompress into an owned dst allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Decompress(nil, comp, len(page)) }); n != 1 {
		t.Errorf("Decompress(nil, ...) allocates %.0f times, want 1", n)
	}
}
