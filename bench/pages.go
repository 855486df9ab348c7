package main

import (
	"encoding/binary"
	"fmt"

	"oasis"
)

// rng is splitmix64: the benchmark owns its generator so the inputs a
// seed produces do not change when the program's own rng package does.
type rng struct{ s uint64 }

func newRNG(seed, salt uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 ^ salt} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// fill writes pseudo-random bytes over p.
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.next())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(p, tail[:])
	}
}

// pageClass is what a desktop-mix page holds.
type pageClass uint8

const (
	classZero pageClass = iota // never touched by the guest
	classCompressible
	classRandom
)

const pageSize = int(oasis.PageSize)

// Desktop-mix class shares, in percent of all guest pages: a quarter of a
// desktop's memory was never touched, most of the rest is text, heap and
// page cache that LZF shrinks well, and the remainder is already
// compressed media that it cannot shrink.
const (
	shareZero         = 25
	shareCompressible = 60
)

// ratioLo and ratioHi bracket the whole-snapshot compression ratio over
// touched pages; the paper's memory-server uploads imply about 3x.
const (
	ratioLo = 2.7
	ratioHi = 3.3
)

// desktopImage is a generated guest memory image.
type desktopImage struct {
	alloc   oasis.Bytes
	ptPages int         // page-table frames: travel with the descriptor, stay zero here
	slab    []byte      // npages * pageSize; untouched pages are zero
	class   []pageClass // per page
	touched []oasis.PFN // pages of a non-zero class, ascending
	byClass [3]int      // page count per class
	vocab   [64][]byte  // the image's repeated tokens

	// base is the image as generated, kept by keepBase for restore.
	base      []byte
	baseClass []pageClass
}

// page returns the generated contents of pfn.
func (d *desktopImage) page(pfn oasis.PFN) []byte {
	return d.slab[int(pfn)*pageSize : (int(pfn)+1)*pageSize]
}

func (d *desktopImage) npages() int { return len(d.class) }

// newDesktopImage generates the desktop-mix image of a seed. Equal
// (seed, alloc) give byte-identical images.
func newDesktopImage(seed uint64, alloc oasis.Bytes) *desktopImage {
	n := int(alloc.Pages())
	d := &desktopImage{
		alloc:   alloc,
		ptPages: int(oasis.NewVMDescriptor(1, "", alloc, 1).PageTablePages),
		slab:    make([]byte, n*pageSize),
		class:   make([]pageClass, n),
	}
	r := newRNG(seed, 0x6465736b746f70) // "desktop"
	for i := range d.vocab {
		d.vocab[i] = make([]byte, r.between(4, 12))
		r.fill(d.vocab[i])
	}
	// Classes are dealt from a shuffled 20-page deck, so every image has
	// the stated shares whatever its size and seed.
	var deck [20]pageClass
	for pfn := d.ptPages; pfn < n; pfn++ {
		at := (pfn - d.ptPages) % len(deck)
		if at == 0 {
			for i := range deck {
				switch {
				case i*100 < shareZero*len(deck):
					deck[i] = classZero
				case i*100 < (shareZero+shareCompressible)*len(deck):
					deck[i] = classCompressible
				default:
					deck[i] = classRandom
				}
			}
			for i := len(deck) - 1; i > 0; i-- {
				j := r.intn(i + 1)
				deck[i], deck[j] = deck[j], deck[i]
			}
		}
		d.class[pfn] = deck[at]
		d.byClass[deck[at]]++
		switch deck[at] {
		case classZero:
			continue
		case classCompressible:
			d.fillCompressible(r, d.page(oasis.PFN(pfn)))
		case classRandom:
			r.fill(d.page(oasis.PFN(pfn)))
		}
		d.touched = append(d.touched, oasis.PFN(pfn))
	}
	return d
}

// fillCompressible writes a page of short segments: runs of one repeated
// token, arrays of pointer-like words sharing their high bytes, zero
// runs, and a little unique data between them.
func (d *desktopImage) fillCompressible(r *rng, p []byte) {
	var ptrBase [8]byte
	binary.LittleEndian.PutUint64(ptrBase[:], 0x00007f0000000000|r.next()&0xffffff0000)
	for off := 0; off < len(p); {
		rest := p[off:]
		var n int
		switch roll := r.intn(100); {
		case roll < 33: // zero run
			n = r.between(64, 384)
		case roll < 65: // one token repeated
			tok := d.vocab[r.intn(len(d.vocab))]
			n = len(tok) * r.between(4, 24)
			for i := 0; i < n && i < len(rest); i++ {
				rest[i] = tok[i%len(tok)]
			}
		case roll < 85: // pointer-like words
			n = 8 * r.between(4, 24)
			for i := 0; i+8 <= n && i+8 <= len(rest); i += 8 {
				copy(rest[i:], ptrBase[:])
				binary.LittleEndian.PutUint16(rest[i:], uint16(r.next()))
			}
		default: // unique bytes
			n = r.between(8, 48)
			if n > len(rest) {
				n = len(rest)
			}
			r.fill(rest[:n])
		}
		off += n
	}
}

// image copies the generated pages into a fresh oasis image.
func (d *desktopImage) image() (*oasis.Image, error) {
	im := oasis.NewImage(d.alloc)
	for _, pfn := range d.touched {
		if err := im.Write(pfn, d.page(pfn)); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// dirty rewrites pfn in the slab with fresh contents of its own class (a
// zero page becomes compressible: the guest touched it) and returns them.
func (d *desktopImage) dirty(r *rng, pfn oasis.PFN) []byte {
	p := d.page(pfn)
	if d.class[pfn] == classRandom {
		r.fill(p)
		return p
	}
	if d.class[pfn] == classZero {
		d.class[pfn] = classCompressible
	}
	clear(p)
	d.fillCompressible(r, p)
	return p
}

// keepBase remembers the image as it is now, so that restore can undo
// later dirtying.
func (d *desktopImage) keepBase() {
	d.base = append([]byte(nil), d.slab...)
	d.baseClass = append([]pageClass(nil), d.class...)
}

// restore puts pfns back to their kept contents, in the slab and in im.
func (d *desktopImage) restore(pfns []oasis.PFN, im *oasis.Image) error {
	for _, pfn := range pfns {
		copy(d.page(pfn), d.base[int(pfn)*pageSize:])
		d.class[pfn] = d.baseClass[pfn]
		if err := im.Write(pfn, d.page(pfn)); err != nil {
			return err
		}
	}
	return nil
}

// pickPFNs draws n distinct guest pages (above the page-table frames)
// into dst, zero pages included.
func (d *desktopImage) pickPFNs(r *rng, n int, dst []oasis.PFN) []oasis.PFN {
	span := d.npages() - d.ptPages
	if n > span {
		n = span
	}
	seen := make(map[oasis.PFN]struct{}, n)
	dst = dst[:0]
	for len(dst) < n {
		pfn := oasis.PFN(d.ptPages + r.intn(span))
		if _, dup := seen[pfn]; dup {
			continue
		}
		seen[pfn] = struct{}{}
		dst = append(dst, pfn)
	}
	return dst
}

// checkMix asserts the generated class shares and the snapshot's
// compression ratio over touched pages, and returns the ratio.
func (d *desktopImage) checkMix(snapshotBytes int) (float64, error) {
	total := float64(d.npages() - d.ptPages)
	for c, want := range [3]float64{shareZero, shareCompressible, 100 - shareZero - shareCompressible} {
		got := 100 * float64(d.byClass[c]) / total
		// The deck makes the shares exact up to one partial deck.
		if tol := 100 * 20 / total; got < want-tol || got > want+tol {
			return 0, fmt.Errorf("desktop-mix: class %d is %.1f%% of pages, want %.0f%%", c, got, want)
		}
	}
	ratio := float64(len(d.touched)*pageSize) / float64(snapshotBytes)
	if ratio < ratioLo || ratio > ratioHi {
		return ratio, fmt.Errorf("desktop-mix: snapshot ratio %.3f outside %.1f-%.1f", ratio, ratioLo, ratioHi)
	}
	return ratio, nil
}
