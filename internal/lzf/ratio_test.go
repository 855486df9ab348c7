package lzf

import (
	"encoding/binary"
	"testing"

	"oasis/internal/rng"
)

// desktopMix builds n seeded 4 KiB pages shaped like a desktop guest's
// memory: of every ten, six are heap-like (zero runs, one short token
// repeated, pointer-like words, a little unique data), three are arrays of
// pointer-like words sharing their high bytes, and one is random.
func desktopMix(seed uint64, n int) [][]byte {
	r := rng.New(seed)
	fill := func(p []byte) {
		for i := 0; i < len(p); i += 8 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], r.Uint64())
			copy(p[i:], w[:])
		}
	}
	var vocab [64][]byte
	for i := range vocab {
		vocab[i] = make([]byte, 4+r.Intn(9))
		fill(vocab[i])
	}
	pointers := func(p []byte) {
		base := 0x00007f0000000000 | r.Uint64()&0xffffff0000
		for i := 0; i+8 <= len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], base|r.Uint64()&0xffff)
		}
	}
	heap := func(p []byte) {
		for off := 0; off < len(p); {
			rest := p[off:]
			var n int
			switch roll := r.Intn(100); {
			case roll < 33: // zero run
				n = 64 + r.Intn(321)
			case roll < 65: // one token repeated
				tok := vocab[r.Intn(len(vocab))]
				n = len(tok) * (4 + r.Intn(21))
				for i := 0; i < n && i < len(rest); i++ {
					rest[i] = tok[i%len(tok)]
				}
			case roll < 85:
				n = 8 * (4 + r.Intn(21))
				pointers(rest[:min(n, len(rest))])
			default: // unique bytes
				n = min(8+r.Intn(41), len(rest))
				fill(rest[:n])
			}
			off += n
		}
	}
	pages := make([][]byte, n)
	for i := range pages {
		p := make([]byte, 4096)
		switch k := i % 10; {
		case k < 6:
			heap(p)
		case k < 9:
			pointers(p)
		default:
			fill(p)
		}
		pages[i] = p
	}
	return pages
}

// TestRatioGuard pins the compressed size of a desktop-like page mix to
// the byte-at-a-time compressor this one replaced (commit 03c66f5), so a
// faster match finder cannot quietly trade ratio for speed.
func TestRatioGuard(t *testing.T) {
	const parentBytes = 778321 // 500 pages of seed 15 through the parent's Compress
	total := 0
	for _, p := range desktopMix(15, 500) {
		total += len(roundTrip(t, p))
	}
	if lo, hi := parentBytes*99/100, parentBytes*101/100; total < lo || total > hi {
		t.Fatalf("desktop mix compresses to %d bytes, parent %d: outside ±1%%", total, parentBytes)
	}
	t.Logf("desktop mix: %d bytes (parent %d, %+.2f%%)", total, parentBytes,
		100*float64(total-parentBytes)/float64(parentBytes))
}
