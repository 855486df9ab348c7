//go:build ignore

// gen_parent_image writes parent_0042.img: the persisted image file of
// VM 42 as pagestore.WriteImageFile of whatever commit it is run at
// lays it out. The committed file was generated at commit bf03f4b, the
// last one whose image file was "OAPD" | alloc | count | index |
// payloads, and must not be regenerated with a later one: the point of
// the file is that a persist directory written by an old daemon keeps
// loading. To reproduce it, check that commit out and, from the module
// root,
//
//	go run internal/memserver/testdata/gen_parent_image.go internal/memserver/testdata/parent_0042.img
//
// TestLoadPersistedParentImage rebuilds the same pages with the same
// generator (parentImagePage in persist_test.go) and compares.
package main

import (
	"log"
	"math/rand"
	"os"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// page returns the contents of the i-th stored page: text-like
// (compressible), random (stored raw), or sparse, by i mod 3.
func page(i int) []byte {
	r := rand.New(rand.NewSource(int64(1000 + i)))
	p := make([]byte, units.PageSize)
	switch i % 3 {
	case 0:
		for j := range p {
			p[j] = "memory server page "[(j+i)%19]
		}
		p[r.Intn(len(p))] = byte(i)
	case 1:
		r.Read(p)
	default:
		for j := 0; j < 24; j++ {
			r.Read(p[r.Intn(len(p)-8):][:8])
		}
	}
	return p
}

func main() {
	im := pagestore.NewImage(8 * units.MiB)
	for i := 0; i < 24; i++ {
		if err := im.Write(pagestore.PFN(5+i*83), page(i)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := pagestore.WriteImageFile(os.Args[1], im); err != nil {
		log.Fatal(err)
	}
}
