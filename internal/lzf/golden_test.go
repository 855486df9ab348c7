package lzf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"
)

// refDecompress is the byte-at-a-time decoder this package shipped up to
// commit 03c66f5, kept as the reference the word-at-a-time one is held
// to: same output on every stream it accepts, rejection of every stream
// it rejects. (That decoder also took a dictionary; without one, a
// reference before the output's start is corrupt.)
func refDecompress(in []byte, outLen int) ([]byte, error) {
	var dst []byte
	for ip, n := 0, len(in); ip < n; {
		ctrl := int(in[ip])
		ip++
		if ctrl < 0x20 {
			run := ctrl + 1
			if ip+run > n {
				return dst, ErrCorrupt
			}
			dst = append(dst, in[ip:ip+run]...)
			ip += run
			continue
		}
		length := ctrl >> 5
		if length == 7 {
			if ip >= n {
				return dst, ErrCorrupt
			}
			length += int(in[ip])
			ip++
		}
		length += 2
		if ip >= n {
			return dst, ErrCorrupt
		}
		d := len(dst) - ((ctrl&0x1f)<<8 | int(in[ip])) - 1
		ip++
		if d < 0 {
			return dst, ErrCorrupt
		}
		for i := 0; i < length; i++ {
			dst = append(dst, dst[d+i])
		}
	}
	if len(dst) != outLen {
		return dst, ErrCorrupt
	}
	return dst, nil
}

type goldenStream struct {
	name           string
	dict, in, comp []byte
}

// readGolden parses testdata/parent_streams.golden; the layout is
// described in testdata/gen_parent_streams.go, which wrote it.
func readGolden(t testing.TB) []goldenStream {
	t.Helper()
	data, err := os.ReadFile("testdata/parent_streams.golden")
	if err != nil {
		t.Fatal(err)
	}
	const magic = "LZFGOLD1\n"
	if !bytes.HasPrefix(data, []byte(magic)) {
		t.Fatal("parent_streams.golden: bad magic")
	}
	data = data[len(magic):]
	field := func() []byte {
		n, w := binary.Uvarint(data)
		if w <= 0 || uint64(len(data)-w) < n {
			t.Fatal("parent_streams.golden: truncated")
		}
		f := data[w : w+int(n)]
		data = data[w+int(n):]
		return f
	}
	var out []goldenStream
	for len(data) > 0 {
		out = append(out, goldenStream{string(field()), field(), field(), field()})
	}
	return out
}

// TestParentStreamsGolden is the format-compatibility proof, both ways:
// every plain stream the parent's compressor wrote decodes to its input
// with this decoder, and every stream this compressor writes for the
// same inputs stays within CompressBound and decodes with the parent's
// decoder as well as this one. The parent also wrote streams against a
// dictionary, a format that is gone; fed to Decompress as they are, each
// must be refused or decode to exactly its input (one that never reached
// into its dictionary), never to other bytes.
func TestParentStreamsGolden(t *testing.T) {
	streams := readGolden(t)
	seen := map[string]bool{}
	for _, g := range streams {
		seen[g.name] = true
		got, err := Decompress([]byte("prefix"), g.comp, len(g.in))
		if len(g.dict) > 0 {
			if (err != nil && !errors.Is(err, ErrCorrupt)) || (err == nil && !bytes.Equal(got[len("prefix"):], g.in)) {
				t.Errorf("%s: dictionary stream without its dictionary = %d bytes, %v; want ErrCorrupt or its input", g.name, len(got), err)
			}
			if verr := Validate(g.comp, len(g.in)); (verr == nil) != (err == nil) {
				t.Errorf("%s: Validate says %v, Decompress says %v", g.name, verr, err)
			}
			t.Logf("%-14s in %6d  dictionary stream: %v", g.name, len(g.in), err)
			continue
		}
		if err != nil || !bytes.Equal(got[len("prefix"):], g.in) || !bytes.HasPrefix(got, []byte("prefix")) {
			t.Errorf("%s: parent stream (%d bytes) does not decode to its %d-byte input: %v",
				g.name, len(g.comp), len(g.in), err)
		}
		comp := Compress(nil, g.in)
		if len(comp) > CompressBound(len(g.in)) {
			t.Errorf("%s: %d bytes compressed to %d, bound %d", g.name, len(g.in), len(comp), CompressBound(len(g.in)))
		}
		for who, dec := range map[string]func() ([]byte, error){
			"this decoder":   func() ([]byte, error) { return Decompress(nil, comp, len(g.in)) },
			"parent decoder": func() ([]byte, error) { return refDecompress(comp, len(g.in)) },
		} {
			if got, err := dec(); err != nil || !bytes.Equal(got, g.in) {
				t.Errorf("%s: new stream does not round-trip through %s: %v", g.name, who, err)
			}
		}
		t.Logf("%-14s in %6d  parent %6d  now %6d", g.name, len(g.in), len(g.comp), len(comp))
	}
	for _, want := range []string{"zero", "sparse", "text", "pointers", "random", "len1", "len2", "len3",
		"long", "dict-near", "dict-text", "dict-overlong", "dict-tiny", "dict-spill", "dict-short-in"} {
		if !seen[want] {
			t.Errorf("golden file lacks the %q stream", want)
		}
	}
}
