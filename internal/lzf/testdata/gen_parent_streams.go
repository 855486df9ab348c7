//go:build ignore

// gen_parent_streams writes parent_streams.golden: (dictionary, input,
// compressed) triples produced by the compressor of whatever commit it
// is run at. The committed file was generated at commit 03c66f5, the
// last one with the byte-at-a-time compressor, and must not be
// regenerated with a later one: the point of the file is that streams
// written by old peers, disk images and persisted server state keep
// decoding. To reproduce it, check that commit out and, from the module
// root,
//
//	go run internal/lzf/testdata/gen_parent_streams.go > parent_streams.golden
//
// Record layout, after the magic line "LZFGOLD1\n": four uvarint-length
// prefixed fields — name, dictionary, input, compressed stream.
//
// The six "dict-*" records were written against a dictionary, which the
// codec no longer has (it compresses every page alone; DESIGN.md §13).
// They stay in the file, unregenerated, as hostile input: decoded
// without their dictionary, each must be refused as corrupt or give
// exactly its input, never other bytes. The nine plain records are the
// compatibility promise and must round-trip as they always have. This
// program only builds at a commit that still has lzf.CompressDict.
package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"

	"oasis/internal/lzf"
)

const page = 4096

func zero() []byte { return make([]byte, page) }

func sparse(r *rand.Rand) []byte {
	p := make([]byte, page)
	for i := 0; i < 40; i++ {
		r.Read(p[r.Intn(page-8):][:8])
	}
	return p
}

var words = []string{"the", "memory", "server", "page", "consolidation", "host", "idle",
	"desktop", "migration", "partial", "energy", "sleep", "of", "a", "to", "and", "upload"}

func text(r *rand.Rand, n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[r.Intn(len(words))])
		b.WriteByte(" ,.\n"[r.Intn(4)])
	}
	return b.Bytes()[:n]
}

func pointers(r *rand.Rand, n int) []byte {
	p := make([]byte, n)
	base := 0x00007f0000000000 | uint64(r.Int63())&0xffffff0000
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], base|uint64(r.Intn(1<<16)))
	}
	return p
}

func random(r *rand.Rand, n int) []byte {
	p := make([]byte, n)
	r.Read(p)
	return p
}

// long is past 64 KiB: every kind of segment, so matches are found at
// positions a 16-bit table entry cannot hold.
func long(r *rand.Rand) []byte {
	var b []byte
	for len(b) < 70000 {
		switch r.Intn(5) {
		case 0:
			b = append(b, make([]byte, 64+r.Intn(700))...)
		case 1:
			b = append(b, text(r, 200+r.Intn(1500))...)
		case 2:
			b = append(b, pointers(r, 8*(8+r.Intn(100)))...)
		case 3:
			b = append(b, random(r, 16+r.Intn(300))...)
		default:
			b = append(b, bytes.Repeat(random(r, 3+r.Intn(9)), 4+r.Intn(60))...)
		}
	}
	return b
}

// near returns base with a few bytes changed.
func near(r *rand.Rand, base []byte) []byte {
	p := append([]byte(nil), base...)
	for i := 0; i < 12; i++ {
		p[r.Intn(len(p))] = byte(r.Int())
	}
	return p
}

func main() {
	r := rand.New(rand.NewSource(15))
	w := bufio.NewWriter(os.Stdout)
	w.WriteString("LZFGOLD1\n")
	field := func(b []byte) {
		w.Write(binary.AppendUvarint(nil, uint64(len(b))))
		w.Write(b)
	}
	emit := func(name string, dict, in []byte) {
		field([]byte(name))
		field(dict)
		field(in)
		if dict == nil {
			field(lzf.Compress(nil, in))
		} else {
			field(lzf.CompressDict(nil, dict, in))
		}
	}
	emit("zero", nil, zero())
	emit("sparse", nil, sparse(r))
	emit("text", nil, text(r, page))
	emit("pointers", nil, pointers(r, page))
	emit("random", nil, random(r, page))
	emit("len1", nil, []byte("a"))
	emit("len2", nil, []byte("ab"))
	emit("len3", nil, []byte("abc"))
	emit("long", nil, long(r))

	dict := random(r, page)
	emit("dict-near", dict, near(r, dict))
	tdict := text(r, page)
	emit("dict-text", tdict, text(r, page))
	over := append(random(r, 5000), tdict...) // clamped to its last 8 KiB
	emit("dict-overlong", over, near(r, tdict))
	emit("dict-tiny", []byte("oasis"), []byte("oasis oasis oasis oasis!"))
	// A match that starts in the dictionary's tail and runs on into the
	// output it is producing.
	emit("dict-spill", []byte("xyzabc"), bytes.Repeat([]byte("abc"), 40))
	emit("dict-short-in", dict, []byte("ab"))
	if err := w.Flush(); err != nil {
		panic(err)
	}
}
