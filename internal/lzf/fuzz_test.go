package lzf

import (
	"bytes"
	"testing"
)

// FuzzDecompress hammers the decoder with arbitrary token streams: it
// must never panic or read out of bounds, and must agree with the
// reference decoder — the same bytes where that one succeeds, an error
// where it fails. The parent compressor's dictionary streams are seeds
// too: without their dictionary they are hostile input.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0x00, 0x41}, 1)
	f.Add([]byte{0x05, 1, 2, 3, 4, 5, 6}, 6)
	f.Add([]byte{0xe0, 0x01, 0x00}, 12)
	f.Add([]byte{0x40, 0x02, 0x00, 0x41}, 5) // reference before the output's start
	f.Add(Compress(nil, bytes.Repeat([]byte("abc"), 100)), 300)
	for _, g := range readGolden(f) {
		if len(g.dict) > 0 {
			f.Add(g.comp, len(g.in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, outLen int) {
		if outLen < 0 || outLen > 1<<20 {
			return
		}
		out, err := Decompress(nil, data, outLen)
		want, wantErr := refDecompress(data, outLen)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoder says %v, reference says %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(out, want) {
			t.Fatal("decoder and reference disagree on the output")
		}
		if len(out) > outLen {
			t.Fatalf("%d bytes out, past outLen %d", len(out), outLen)
		}
	})
}

// FuzzValidate holds the write-free walk to the decoder's accept/reject
// set, error text included: Validate(in, n) == nil exactly when
// Decompress(nil, in, n) succeeds. Seeds are the decoder's corpus, the
// parent compressor's streams (whole and cut short) and the hostile
// table.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0x05, 1, 2, 3, 4, 5, 6}, 6)
	f.Add([]byte{0xe0, 0x01, 0x00}, 12)
	f.Add([]byte{0x00, 'a', 0x20, 0x02}, 4) // reaches before the output's start
	f.Add(Compress(nil, bytes.Repeat([]byte("abc"), 100)), 300)
	for _, g := range readGolden(f) {
		f.Add(g.comp, len(g.in))
		f.Add(g.comp[:len(g.comp)/2], len(g.in))
	}
	for _, c := range hostileStreams {
		f.Add(c.in, c.outLen)
	}
	f.Fuzz(func(t *testing.T, in []byte, outLen int) {
		if outLen < 0 || outLen > 1<<20 {
			return
		}
		_, want := Decompress(nil, in, outLen)
		got := Validate(in, outLen)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Validate says %v, Decompress says %v", got, want)
		}
	})
}

// stretch repeats in until it is n bytes long, XORing each pass with a
// different multiple of salt: passes match each other only at distances
// the window cannot reach, which is what leaves stale table entries.
func stretch(in []byte, n int, salt byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = in[i%len(in)] ^ byte(i/len(in))*salt
	}
	return out
}

// FuzzRoundTrip asserts compress→decompress is the identity for any
// input, at the fuzzed size and stretched past 64 KiB (where a 16-bit
// table entry has wrapped), through this decoder and the reference one.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte("hello hello hello"), byte(1))
	f.Add(bytes.Repeat([]byte{0}, 4096), byte(0))
	f.Add([]byte("abcabcabcabc"), byte(7))
	f.Fuzz(func(t *testing.T, in []byte, salt byte) {
		if len(in) > 1<<20 {
			return
		}
		inputs := [][]byte{in}
		if len(in) > 0 {
			inputs = append(inputs, stretch(in, 1<<16+len(in)%4099, salt))
		}
		for _, in := range inputs {
			comp := Compress(nil, in)
			if len(comp) > CompressBound(len(in)) {
				t.Fatalf("compressed %d bytes beyond bound %d", len(comp), CompressBound(len(in)))
			}
			for _, dec := range []func() ([]byte, error){
				func() ([]byte, error) { return Decompress(nil, comp, len(in)) },
				func() ([]byte, error) { return refDecompress(comp, len(in)) },
			} {
				out, err := dec()
				if err != nil {
					t.Fatalf("round trip failed: %v", err)
				}
				if !bytes.Equal(out, in) {
					t.Fatal("round trip mismatch")
				}
			}
		}
	})
}
