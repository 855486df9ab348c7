package lzf

import (
	"bytes"
	"math/rand"
	"testing"
)

// randPage builds a page with tunable redundancy: runs of repeated motifs
// mixed with incompressible noise, optionally derived from a base page.
func randPage(rng *rand.Rand, size int, base []byte) []byte {
	p := make([]byte, size)
	if base != nil {
		copy(p, base)
		// Mutate a handful of scattered words so the page is near, but
		// not equal to, the base.
		for i := 0; i < 1+rng.Intn(12); i++ {
			at := rng.Intn(size)
			p[at] = byte(rng.Int())
		}
		return p
	}
	i := 0
	for i < size {
		switch rng.Intn(3) {
		case 0: // noise
			n := 1 + rng.Intn(64)
			for j := 0; j < n && i < size; j++ {
				p[i] = byte(rng.Int())
				i++
			}
		case 1: // run
			b := byte(rng.Int())
			n := 1 + rng.Intn(128)
			for j := 0; j < n && i < size; j++ {
				p[i] = b
				i++
			}
		default: // repeated motif
			motif := make([]byte, 2+rng.Intn(14))
			rng.Read(motif)
			n := 1 + rng.Intn(16)
			for j := 0; j < n*len(motif) && i < size; j++ {
				p[i] = motif[j%len(motif)]
				i++
			}
		}
	}
	return p
}

func TestCompressDictEmptyDictMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		in := randPage(rng, 1+rng.Intn(4096), nil)
		plain := Compress(nil, in)
		dict := CompressDict(nil, nil, in)
		if !bytes.Equal(plain, dict) {
			t.Fatalf("trial %d: CompressDict(nil dict) diverges from Compress", trial)
		}
		viaFrom := compressFrom(nil, in, 0)
		if !bytes.Equal(plain, viaFrom) {
			t.Fatalf("trial %d: compressFrom(start=0) diverges from Compress", trial)
		}
	}
}

func TestDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var dict []byte
		switch rng.Intn(4) {
		case 0:
			dict = nil
		case 1:
			dict = randPage(rng, 1+rng.Intn(16), nil) // tiny dict
		case 2:
			dict = randPage(rng, 4096, nil)
		default:
			dict = randPage(rng, MaxDictLen+1+rng.Intn(4096), nil) // over-long, clamped
		}
		var in []byte
		if len(dict) >= 64 && rng.Intn(2) == 0 {
			in = randPage(rng, len(dict), dict[:min(len(dict), 4096)]) // near-dict page
		} else {
			in = randPage(rng, rng.Intn(4096), nil)
		}
		comp := CompressDict(nil, dict, in)
		got, err := DecompressDict(nil, dict, comp, len(in))
		if err != nil {
			t.Fatalf("trial %d: DecompressDict: %v", trial, err)
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("trial %d: round trip mismatch (dict %d, in %d, comp %d)",
				trial, len(dict), len(in), len(comp))
		}
	}
}

func TestDictImprovesNearDictPages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dict := randPage(rng, 4096, nil)
	// Make the dict incompressible so plain lzf can't help.
	rng.Read(dict)
	in := randPage(rng, 4096, dict)
	plain := Compress(nil, in)
	withDict := CompressDict(nil, dict, in)
	if len(withDict) >= len(plain) {
		t.Fatalf("dict compression did not help on near-dict page: plain %d, dict %d",
			len(plain), len(withDict))
	}
	if len(withDict) > 512 {
		t.Fatalf("near-dict page should compress to a small delta, got %d bytes", len(withDict))
	}
}

func TestDecompressDictRejectsWrongDictLen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dict := make([]byte, 4096)
	rng.Read(dict)
	in := randPage(rng, 4096, dict)
	comp := CompressDict(nil, dict, in)

	// Decoding with no dict must fail: refs reach before output start.
	if _, err := Decompress(nil, comp, len(in)); err == nil {
		t.Fatal("Decompress accepted a dict-dependent stream")
	}
	if _, err := DecompressDict(nil, nil, comp, len(in)); err == nil {
		t.Fatal("DecompressDict(nil dict) accepted a dict-dependent stream")
	}
	// A too-short dict must also fail or produce different bytes, never panic.
	got, err := DecompressDict(nil, dict[2048:], comp, len(in))
	if err == nil && bytes.Equal(got, in) {
		t.Fatal("truncated dict reproduced original bytes")
	}
}

func TestDecompressDictTruncatedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dict := randPage(rng, 4096, nil)
	in := randPage(rng, 4096, dict)
	comp := CompressDict(nil, dict, in)
	for cut := 0; cut < len(comp); cut += 7 {
		if _, err := DecompressDict(nil, dict, comp[:cut], len(in)); err == nil && cut < len(comp) {
			// Some prefixes decode cleanly but must then miss outLen.
			t.Fatalf("truncated stream at %d accepted", cut)
		}
	}
}

func TestDecompressDictRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dict := randPage(rng, 4096, nil)
	for trial := 0; trial < 500; trial++ {
		junk := make([]byte, rng.Intn(256))
		rng.Read(junk)
		// Must never panic; error or wrong-length result are both fine.
		out, err := DecompressDict(nil, dict, junk, 4096)
		if err == nil && len(out) != 4096 {
			t.Fatalf("trial %d: nil error with %d bytes out", trial, len(out))
		}
	}
}
