package memserver

import (
	"bytes"
	"encoding/binary"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// FuzzGetPagesRequest holds two properties over the batch-request
// framing: parse never panics on arbitrary bytes, and anything it accepts
// re-encodes to the identical canonical payload (round trip).
// appendPageEntry appends one msgPages reply entry (pfn | token | encoded
// body) for a page's raw contents, as a server holding the page raw does.
func appendPageEntry(out []byte, pfn pagestore.PFN, page []byte) []byte {
	return pagestore.EncodePageAppend(binary.BigEndian.AppendUint64(out, uint64(pfn)), page)
}

func FuzzGetPagesRequest(f *testing.F) {
	f.Add(encodeGetPagesRequest(7, []pagestore.PFN{0, 1, 2, 99}))
	f.Add(encodeGetPagesRequest(0, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // n overflowing the batch cap
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge[4:], maxBatchPages+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		id, pfns, err := parseGetPagesRequest(nil, data)
		if err != nil {
			return
		}
		if len(pfns) > maxBatchPages {
			t.Fatalf("parser accepted a batch of %d > %d pages", len(pfns), maxBatchPages)
		}
		if got := encodeGetPagesRequest(id, pfns); !bytes.Equal(got, data) {
			t.Fatalf("request round trip diverged:\n in  %x\n out %x", data, got)
		}
	})
}

// FuzzPagesReply feeds arbitrary bytes to the batch-reply parser: it must
// reject garbage gracefully, never panic, and only ever deliver
// page-sized contents.
func FuzzPagesReply(f *testing.F) {
	// A well-formed reply as the seed: two real pages plus a zero page.
	pageA := bytes.Repeat([]byte{0xAA}, int(units.PageSize))
	pageB := make([]byte, units.PageSize)
	copy(pageB, []byte("compressible compressible compressible"))
	zero := make([]byte, units.PageSize)
	good := make([]byte, 4)
	binary.BigEndian.PutUint32(good, 3)
	good = appendPageEntry(good, 4, pageA)
	good = appendPageEntry(good, 9, pageB)
	good = appendPageEntry(good, 13, zero)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})                   // count promises more than the payload holds
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}) // absurd count
	f.Fuzz(func(t *testing.T, data []byte) {
		pages, err := parsePagesReply(data)
		if err != nil {
			return
		}
		for pfn, page := range pages {
			if len(page) != int(units.PageSize) {
				t.Fatalf("pfn %d: delivered %d-byte page", pfn, len(page))
			}
		}
	})
}

// frameSeq concatenates length-prefixed frames the way they appear on the
// wire, for feeding the upload fuzz target whole conversations.
func frameSeq(frames ...struct {
	typ     byte
	payload []byte
}) []byte {
	var buf bytes.Buffer
	for _, fr := range frames {
		writeFrame(&buf, fr.typ, fr.payload)
	}
	return buf.Bytes()
}

func frame(typ byte, payload []byte) struct {
	typ     byte
	payload []byte
} {
	return struct {
		typ     byte
		payload []byte
	}{typ, payload}
}

// encodePut builds a PutImage or PutDiff payload around a snapshot
// chunk, the way the client's zero-copy framing lays it out.
func encodePut(h putHead, chunk []byte) []byte {
	return append(appendPutHead(nil, h), chunk...)
}

// FuzzPutChunkFraming drives the upload framing and staging state
// machine with arbitrary frame sequences. Three properties hold: the
// parsers never panic and anything they accept round-trips to identical
// canonical bytes; the server-side put and commit methods never panic
// whatever order chunks and commits arrive in (out-of-order seq,
// duplicates, commit before chunk 0); and a successful whole-snapshot
// put or commit only ever installs a decodable image. Seeds (plus the
// testdata/fuzz corpus) cover truncated chunk heads, out-of-order and
// duplicate sequence numbers, and commit before the upload opened.
func FuzzPutChunkFraming(f *testing.F) {
	// A valid two-chunk upload, chunks deliberately out of order and one
	// duplicated. Its pages compress to a few bytes each, so every seed is
	// small: the fuzzer minimizes each new input it finds, and off a seed
	// of two raw pages (8 KiB) that minimization took the whole run.
	// SplitSnapshot never cuts below one page's worth, so each one-entry
	// chunk is encoded on its own.
	pages := [][]byte{
		bytes.Repeat([]byte{0x5A}, int(units.PageSize)),
		bytes.Repeat([]byte("page"), int(units.PageSize)/4),
	}
	encode := func(pfns ...pagestore.PFN) []byte {
		im := pagestore.NewImage(1 * units.MiB)
		for _, pfn := range pfns {
			im.Write(pfn, pages[pfn])
		}
		snap, _, err := pagestore.EncodeAll(im)
		if err != nil {
			f.Fatal(err)
		}
		return snap
	}
	snap, chunks := encode(0, 1), [][]byte{encode(0), encode(1)}
	image := func(seq uint32) putHead {
		return putHead{kind: msgPutImage, id: 5, uploadID: 99, seq: seq, alloc: 1 * units.MiB}
	}
	f.Add(frameSeq(
		frame(msgPutImage, encodePut(image(0), chunks[0])),
		frame(msgPutImage, encodePut(image(1), chunks[1])),
		frame(msgPutImage, encodePut(image(0), chunks[0])), // duplicate
		frame(msgPutImage, encodePut(image(1), chunks[1])), // duplicate
		frame(msgPutCommit, encodePutCommit(5, 99, 2)),
		frame(msgPutCommit, encodePutCommit(5, 99, 2)), // replayed commit
	))
	// The same image as one whole-snapshot frame, then a diff onto it.
	f.Add(frameSeq(
		frame(msgPutImage, encodePut(putHead{kind: msgPutImage, id: 5, alloc: 1 * units.MiB}, snap)),
		frame(msgPutDiff, encodePut(putHead{kind: msgPutDiff, id: 5}, chunks[1])),
	))
	// Commit before chunk 0, then a later chunk before chunk 0.
	f.Add(frameSeq(
		frame(msgPutCommit, encodePutCommit(3, 1, 1)),
		frame(msgPutDiff, encodePut(putHead{kind: msgPutDiff, id: 3, uploadID: 1, seq: 1}, chunks[0])),
	))
	// Truncated chunk head (payload shorter than the 16-byte diff head).
	f.Add(frameSeq(frame(msgPutDiff, []byte{0, 0, 0, 5, 0, 0})))
	// Truncated image head and commit payloads.
	f.Add(frameSeq(
		frame(msgPutImage, encodePut(image(0), nil)[:11]),
		frame(msgPutCommit, encodePutCommit(5, 99, 1)[:7]),
	))
	// Seq beyond the chunk limit and a zero-chunk commit.
	f.Add(frameSeq(
		frame(msgPutDiff, encodePut(putHead{kind: msgPutDiff, id: 5, uploadID: 99, seq: maxUploadChunks}, nil)),
		frame(msgPutCommit, encodePutCommit(5, 99, 0)),
	))
	f.Add([]byte{})

	// One server per fuzz worker, not one per exec: each exec deletes
	// the VMs it touched, so the next starts from an empty store again.
	s := NewServer(testSecret, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := s.Store().Len(); n != 0 {
			t.Fatalf("exec starts with %d images left by the last", n)
		}
		var touched []pagestore.VMID
		defer func() {
			for _, id := range touched {
				s.deleteVM(id)
			}
		}()
		// installed holds a successful put or commit to one readable image.
		installed := func(id pagestore.VMID) {
			im, err := s.Store().Get(id)
			if err != nil {
				t.Fatalf("upload to vm %04d left no image: %v", id, err)
			}
			if _, _, err := pagestore.EncodeAll(im); err != nil {
				t.Fatalf("uploaded image does not re-encode: %v", err)
			}
		}
		for off := 0; off+5 <= len(data); {
			n := int(binary.BigEndian.Uint32(data[off:]))
			typ := data[off+4]
			if n < 0 || n > len(data)-off-5 {
				break
			}
			payload := data[off+5 : off+5+n]
			off += 5 + n
			switch typ {
			case msgPutImage, msgPutDiff:
				h, chunk, err := parsePut(typ, payload)
				if err != nil {
					continue
				}
				if got := encodePut(h, chunk); !bytes.Equal(got, payload) {
					t.Fatalf("put round trip diverged:\n in  %x\n out %x", payload, got)
				}
				touched = append(touched, h.id)
				if err := s.put(h, chunk); err == nil && h.uploadID == 0 {
					installed(h.id)
				}
			case msgPutCommit:
				id, uploadID, nchunks, err := parsePutCommit(payload)
				if err != nil {
					continue
				}
				if got := encodePutCommit(id, uploadID, nchunks); !bytes.Equal(got, payload) {
					t.Fatalf("PutCommit round trip diverged:\n in  %x\n out %x", payload, got)
				}
				touched = append(touched, id)
				if err := s.putCommit(id, uploadID, nchunks); err == nil {
					installed(id)
				}
			}
		}
	})
}

// FuzzGetPagesRoundTrip drives the full encode→parse→serve→parse chain
// with fuzzer-chosen PFNs and page contents: whatever pages go in must
// come back out byte-identical through the batch framing.
func FuzzGetPagesRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte("hello page contents"))
	f.Add(uint64(0), []byte{})
	f.Add(uint64(500), bytes.Repeat([]byte{7}, 64))
	f.Fuzz(func(t *testing.T, pfnRaw uint64, contents []byte) {
		im := pagestore.NewImage(4 * units.MiB)
		pfn := pagestore.PFN(pfnRaw % uint64(im.NumPages()))
		if len(contents) > int(units.PageSize) {
			contents = contents[:units.PageSize]
		}
		if err := im.Write(pfn, contents); err != nil {
			t.Fatal(err)
		}
		want, err := im.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}

		// Request side.
		id, pfns, err := parseGetPagesRequest(nil, encodeGetPagesRequest(3, []pagestore.PFN{pfn}))
		if err != nil || id != 3 || len(pfns) != 1 || pfns[0] != pfn {
			t.Fatalf("request round trip: id=%d pfns=%v err=%v", id, pfns, err)
		}
		// Reply side, built the way the server builds it.
		reply := make([]byte, 4)
		binary.BigEndian.PutUint32(reply, 1)
		reply = appendPageEntry(reply, pfn, want)
		pages, err := parsePagesReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		if got := pages[pfn]; !bytes.Equal(got, want) {
			t.Fatal("page contents diverged through batch framing")
		}
	})
}
