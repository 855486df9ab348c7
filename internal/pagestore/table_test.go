package pagestore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"oasis/internal/rng"
	"oasis/internal/units"
)

// mapImage is the page table this package had before the leaf
// directory — a map of pages and a map of dirty epochs, sorted on the
// way out — kept as the oracle the table is held to.
type mapImage struct {
	pages   map[PFN][]byte
	dirtyAt map[PFN]uint64
	epoch   uint64
}

func newMapImage() *mapImage {
	return &mapImage{pages: map[PFN][]byte{}, dirtyAt: map[PFN]uint64{}, epoch: 1}
}

func (m *mapImage) write(pfn PFN, data []byte) {
	if IsZeroPage(data) {
		delete(m.pages, pfn)
	} else {
		p := make([]byte, units.PageSize)
		copy(p, data)
		m.pages[pfn] = p
	}
	m.dirtyAt[pfn] = m.epoch
}

func (m *mapImage) read(pfn PFN) []byte {
	if p, ok := m.pages[pfn]; ok {
		return p
	}
	return zeroPage
}

func (m *mapImage) dirtySince(epoch uint64) []PFN {
	var out []PFN
	for pfn, e := range m.dirtyAt {
		if e > epoch {
			out = append(out, pfn)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapImage) allTouched() []PFN {
	out := make([]PFN, 0, len(m.pages))
	for pfn := range m.pages {
		out = append(out, pfn)
	}
	slices.Sort(out)
	return out
}

// TestTableMatchesMapSemantics runs random histories of guest writes,
// guest-side applies, store-side adopts, epoch advances and dirty resets
// against the map oracle: Read, DirtySince, AllTouched and TouchedPages
// must agree after every step. A page adopted compressed counts as
// touched; the snapshots here come from this package's encoder, which
// never emits a compressed entry for a zero page, so the counts agree.
func TestTableMatchesMapSemantics(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		// Not a whole number of leaves, and a history that skips some.
		const npages = 3*leafPages + 17
		im, ref := NewImage(units.PagesBytes(npages)), newMapImage()
		// Pages cluster in two leaves and straggle over the rest.
		pick := func() PFN {
			switch r.Intn(4) {
			case 0:
				return PFN(r.Intn(npages))
			case 1:
				return PFN(2*leafPages + r.Intn(40))
			default:
				return PFN(leafPages - 20 + r.Intn(40))
			}
		}
		content := func() []byte {
			switch r.Intn(5) {
			case 0:
				return nil // zero
			case 1:
				return []byte{byte(1 + r.Intn(255))} // short write, zero-padded
			case 2:
				p := make([]byte, units.PageSize)
				for i := range p {
					p[i] = byte(r.Uint64())
				}
				return p // incompressible: a raw entry once encoded
			default:
				return fillPage(r)
			}
		}
		for step := 0; step < 400; step++ {
			switch op := r.Intn(9); {
			case op < 4:
				pfn, data := pick(), content()
				if err := im.Write(pfn, data); err != nil {
					t.Fatal(err)
				}
				ref.write(pfn, data)
			case op < 8:
				// A snapshot of a few pages, applied guest-side or
				// adopted store-side; either is one write per entry.
				scratch, n := NewImage(units.PagesBytes(npages)), 1+r.Intn(12)
				var pfns []PFN
				for i := 0; i < n; i++ {
					pfn, data := pick(), content()
					scratch.Write(pfn, data)
					pfns = append(pfns, pfn)
				}
				slices.Sort(pfns)
				pfns = slices.Compact(pfns)
				snap, err := EncodePages(scratch, pfns)
				if err != nil {
					t.Fatal(err)
				}
				if op < 6 {
					err = ApplySnapshot(im, snap)
				} else {
					var st *Staged
					if st, err = im.Stage(snap); err == nil {
						if entries, _ := im.Adopt(st); entries != int64(len(pfns)) {
							t.Fatalf("adopted %d entries of %d", entries, len(pfns))
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, pfn := range pfns {
					page, _ := scratch.Read(pfn)
					ref.write(pfn, page)
				}
			default:
				if got := im.NextEpoch(); got != ref.epoch {
					t.Fatalf("NextEpoch = %d, want %d", got, ref.epoch)
				}
				ref.epoch++
			}
			if got, want := im.TouchedPages(), int64(len(ref.pages)); got != want {
				t.Fatalf("seed %d step %d: TouchedPages = %d, want %d", seed, step, got, want)
			}
			if got, want := im.AllTouched(), ref.allTouched(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: AllTouched = %v, want %v", seed, step, got, want)
			}
			since := uint64(r.Intn(int(ref.epoch) + 1))
			if got, want := im.DirtySince(since), ref.dirtySince(since); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: DirtySince(%d) = %v, want %v", seed, step, since, got, want)
			}
			for i := 0; i < 8; i++ {
				pfn := pick()
				if got, _ := im.Read(pfn); !bytes.Equal(got, ref.read(pfn)) {
					t.Fatalf("seed %d step %d: pfn %d reads wrong", seed, step, pfn)
				}
			}
		}
		for pfn := PFN(0); pfn < npages; pfn++ {
			if got, _ := im.Read(pfn); !bytes.Equal(got, ref.read(pfn)) {
				t.Fatalf("seed %d: pfn %d reads wrong at the end", seed, pfn)
			}
		}
		if live, held := im.WireBytes(); live == 0 || held < live {
			t.Fatalf("seed %d: %d wire bytes live of %d held: the store side was not exercised", seed, live, held)
		}
	}
}

// TestReadDoesNotPromote: reading a page held as a wire entry decodes a
// fresh copy each time and leaves the slot as it was, so an oracle read
// never changes what the image serves next, nor what it holds.
func TestReadDoesNotPromote(t *testing.T) {
	src := NewImage(1 * units.MiB)
	page := fillPage(rng.New(3))
	src.Write(9, page)
	snap, _, _ := EncodeAll(src)
	entry := snap[16:] // past the header and the pfn

	im := NewImage(1 * units.MiB)
	st, err := im.Stage(bytes.Clone(snap))
	if err != nil {
		t.Fatal(err)
	}
	im.Adopt(st)
	live, held := im.WireBytes()
	if live != int64(len(entry)) || held != int64(len(snap)) {
		t.Fatalf("%d live / %d held, want %d / %d", live, held, len(entry), len(snap))
	}
	a, _ := im.Read(9)
	b, _ := im.Read(9)
	if !bytes.Equal(a, page) || &a[0] == &b[0] {
		t.Fatal("Read of a wire slot must decode a fresh page each time")
	}
	if got, _ := im.AppendEntry(nil, 9); !bytes.Equal(got, entry) {
		t.Fatal("after a Read the image no longer serves the entry it was sent")
	}
	if l, h := im.WireBytes(); l != live || h != held {
		t.Fatalf("Read changed what the image holds: %d/%d, was %d/%d", l, h, live, held)
	}
	// A guest write over a wire slot releases its bytes from the count.
	im.Write(9, page)
	if l, _ := im.WireBytes(); l != 0 {
		t.Fatalf("%d wire bytes live after the page was overwritten raw", l)
	}
	if got, _ := im.AppendEntry(nil, 9); !bytes.Equal(got, entry) {
		t.Fatal("a raw page encodes to a different entry than the encoder's own")
	}
}

// TestHostileAllocationBoundsDirectory: the page table's directory is
// sized by the highest page stored, so neither an absurd allocation nor
// a PFN that is negative as an int64 may reach it.
func TestHostileAllocationBoundsDirectory(t *testing.T) {
	im := NewImage(units.Bytes(1) << 62)
	if im.NumPages() != maxPages {
		t.Fatalf("NumPages = %d, want the %d-page bound", im.NumPages(), maxPages)
	}
	for _, pfn := range []PFN{maxPages, 1 << 40, 1<<63 + 1, ^PFN(0)} {
		if err := im.Write(pfn, []byte{1}); err == nil {
			t.Errorf("write to pfn %#x accepted", pfn)
		}
		if _, err := im.Read(pfn); err == nil {
			t.Errorf("read of pfn %#x accepted", pfn)
		}
	}
	if err := im.Write(maxPages-1, []byte{1}); err != nil || len(im.leaves) != maxPages/leafPages {
		t.Fatalf("last page: %v, directory of %d", err, len(im.leaves))
	}
	if NewImage(-4096).Write(0, []byte{1}) == nil {
		t.Error("write to an image of negative allocation accepted")
	}
}

// TestStageRefusesWithoutChange: a snapshot with one bad entry behind
// good ones is refused whole, and the image — slots, dirty stamps, byte
// counts — is as it was.
func TestStageRefusesWithoutChange(t *testing.T) {
	im := NewImage(1 * units.MiB)
	im.Write(1, fillPage(rng.New(1)))
	im.NextEpoch()
	src := NewImage(1 * units.MiB)
	src.Write(1, fillPage(rng.New(2)))
	src.Write(2, fillPage(rng.New(3)))
	good, _, _ := EncodeAll(src)
	for name, tail := range map[string][]byte{
		"corrupt stream": append(binary.BigEndian.AppendUint64(nil, 3), 0, 2, 0x05, 'a'),
		"pfn beyond":     append(binary.BigEndian.AppendUint64(nil, 256), 0xFF, 0xFF),
		"pfn past 1<<63": append(binary.BigEndian.AppendUint64(nil, 1<<63+5), 0xFF, 0xFF),
		"cut short":      append(binary.BigEndian.AppendUint64(nil, 3), 0x90),
	} {
		snap := append(bytes.Clone(good), tail...)
		binary.BigEndian.PutUint32(snap[4:], 3)
		if _, err := im.Stage(snap); err == nil {
			t.Errorf("%s: staged", name)
		}
		if err := ApplySnapshot(NewImage(1*units.MiB), snap); err == nil {
			t.Errorf("%s: the guest-side apply accepts what Stage refuses", name)
		}
	}
	if got := im.DirtySince(1); len(got) != 0 || im.TouchedPages() != 1 {
		t.Fatalf("refused snapshots left dirty pages %v, %d touched", got, im.TouchedPages())
	}
	if live, held := im.WireBytes(); live != 0 || held != 0 {
		t.Fatalf("refused snapshots left %d/%d wire bytes", live, held)
	}
}
