package lzf

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"oasis/internal/rng"
)

func roundTrip(t *testing.T, in []byte) []byte {
	t.Helper()
	comp := Compress(nil, in)
	out, err := Decompress(nil, comp, len(in))
	if err != nil {
		t.Fatalf("Decompress(%d bytes): %v", len(in), err)
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("round trip mismatch: in %d bytes, out %d bytes", len(in), len(out))
	}
	return comp
}

func TestRoundTripEmpty(t *testing.T) {
	comp := Compress(nil, nil)
	if len(comp) != 0 {
		t.Fatalf("empty input compressed to %d bytes, want 0", len(comp))
	}
	out, err := Decompress(nil, comp, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty decompress = %d bytes, err %v", len(out), err)
	}
}

func TestRoundTripShort(t *testing.T) {
	for _, s := range []string{"a", "ab", "abc", "abcd", "aaaa", "abab"} {
		roundTrip(t, []byte(s))
	}
}

func TestRoundTripZeros(t *testing.T) {
	in := make([]byte, 4096)
	comp := roundTrip(t, in)
	if len(comp) >= len(in)/8 {
		t.Errorf("zero page compressed to %d bytes, want < %d", len(comp), len(in)/8)
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	in := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 100)
	comp := roundTrip(t, in)
	if len(comp) >= len(in)/2 {
		t.Errorf("repetitive text compressed to %d bytes of %d, want < half", len(comp), len(in))
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{5, 64, 4096, 65536} {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(r.Uint64())
		}
		comp := roundTrip(t, in)
		if len(comp) > CompressBound(n) {
			t.Errorf("n=%d: compressed size %d exceeds bound %d", n, len(comp), CompressBound(n))
		}
	}
}

func TestRoundTripStructured(t *testing.T) {
	// Emulate page contents: mostly zeros with scattered words, like real
	// guest memory.
	r := rng.New(7)
	in := make([]byte, 4096)
	for i := 0; i < 40; i++ {
		off := r.Intn(len(in) - 8)
		for j := 0; j < 8; j++ {
			in[off+j] = byte(r.Uint64())
		}
	}
	comp := roundTrip(t, in)
	if len(comp) >= len(in) {
		t.Errorf("sparse page did not compress: %d >= %d", len(comp), len(in))
	}
}

// TestDecompressHostile has one stream per rejection, each tried through
// Decompress and through DecompressDict with a dictionary in play.
// hostileStreams is one stream per rejection the decoder makes.
var hostileStreams = []struct {
	name   string
	in     []byte
	outLen int
}{
	{"truncated literal run", []byte{0x05, 'a'}, 6},
	{"truncated length byte", []byte{0x00, 'a', 0xe0}, 100},
	{"truncated offset byte", []byte{0x00, 'a', 0x20}, 4},
	{"truncated offset byte after a length byte", []byte{0x00, 'a', 0xe0, 0x01}, 11},
	{"reference before the output and the dictionary", []byte{0x00, 'a', 0x20, 0x10}, 4},
	{"trailing control byte wanting more", []byte{0x00, 'a', 0xff}, 1},
	{"stream ends short of outLen", []byte{0x01, 'a', 'b'}, 3},
	{"literal run passes outLen", []byte{0x02, 'a', 'b', 'c'}, 2},
	{"match passes outLen", []byte{0x00, 'a', 0xe0, 0xff, 0x00}, 100},
}

func TestDecompressHostile(t *testing.T) {
	dict := []byte("xyz")
	cases := hostileStreams
	for _, c := range cases {
		if _, err := Decompress(nil, c.in, c.outLen); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress = %v, want ErrCorrupt", c.name, err)
		}
		if _, err := DecompressDict(nil, dict, c.in, c.outLen); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecompressDict = %v, want ErrCorrupt", c.name, err)
		}
		if err := Validate(c.in, c.outLen); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrCorrupt", c.name, err)
		}
	}
	// A reference may reach the dictionary but not bytes dst already
	// held, which are not part of this stream's history.
	reach := []byte{0x00, 'a', 0x20, 0x02} // 'a', then 3 bytes from 2 before the output
	if out, err := DecompressDict(nil, dict, reach, 4); err != nil || string(out) != "ayza" {
		t.Errorf("reference into the dictionary = %q, %v", out, err)
	}
	if _, err := Decompress([]byte("xyz"), reach, 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("reference into dst's prefix = %v, want ErrCorrupt", err)
	}
}

// TestDecompressStopsAtOutLen holds the decoder to refusing a stream at
// the token that would pass outLen: a hostile stream expanding to 64 MiB
// must not grow the caller's page-sized buffer, let alone be decoded and
// measured afterwards.
func TestDecompressStopsAtOutLen(t *testing.T) {
	bomb := []byte{0x00, 0}
	for i := 0; i < 1<<18; i++ {
		bomb = append(bomb, 0xe0, 0xff, 0x00) // 264 more zeros each
	}
	buf := make([]byte, 0, 4096)
	out, err := Decompress(buf, bomb, 4096)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if len(out) > 4096 || cap(out) != cap(buf) {
		t.Fatalf("decoder produced %d bytes (cap %d) for outLen 4096", len(out), cap(out))
	}
}

func TestDecompressWrongLength(t *testing.T) {
	comp := Compress(nil, []byte("hello world hello world"))
	if _, err := Decompress(nil, comp, 5); err == nil {
		t.Error("wrong outLen accepted")
	}
}

func TestAppendSemantics(t *testing.T) {
	prefix := []byte("prefix")
	comp := Compress(append([]byte(nil), prefix...), []byte("data data data data"))
	if !bytes.HasPrefix(comp, prefix) {
		t.Fatal("Compress did not append to dst")
	}
	out, err := Decompress(append([]byte(nil), prefix...), comp[len(prefix):], 19)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) || string(out[len(prefix):]) != "data data data data" {
		t.Fatalf("Decompress append semantics broken: %q", out)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(in []byte) bool {
		comp := Compress(nil, in)
		out, err := Decompress(nil, comp, len(in))
		return err == nil && bytes.Equal(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// benchPage is a sparse page: 64 scattered 16-byte words in zeros.
func benchPage() []byte {
	r := rng.New(3)
	page := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		off := r.Intn(len(page) - 16)
		for j := 0; j < 16; j++ {
			page[off+j] = byte(r.Uint64())
		}
	}
	return page
}

// The Page benchmarks report both call shapes: "owned" is the hot paths'
// (a caller-owned dst reused across pages, 0 allocs/op), "nil" what a
// one-off caller such as pagestore.DecodePage pays (1 alloc/op).
func BenchmarkCompressPage(b *testing.B) {
	page := benchPage()
	b.Run("owned", func(b *testing.B) {
		dst := make([]byte, 0, CompressBound(len(page)))
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = Compress(dst[:0], page)
		}
	})
	b.Run("nil", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Compress(nil, page)
		}
	})
}

// BenchmarkCompressRandomPage is the incompressible case, which the
// widening stride keeps cheaper than the compressible one.
func BenchmarkCompressRandomPage(b *testing.B) {
	r := rng.New(4)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(r.Uint64())
	}
	dst := make([]byte, 0, CompressBound(len(page)))
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = Compress(dst[:0], page)
	}
}

func BenchmarkDecompressPage(b *testing.B) {
	comp := Compress(nil, benchPage())
	b.Run("owned", func(b *testing.B) {
		dst := make([]byte, 0, 4096)
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decompress(dst[:0], comp, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nil", func(b *testing.B) {
		b.SetBytes(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decompress(nil, comp, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
}
