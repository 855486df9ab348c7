// Pageserver: the functional layer end to end, in-process but over real
// TCP — a home host uploads a VM's compressed memory image to its
// low-power memory server, "suspends", and a consolidation host runs the
// VM as a partial VM whose page faults are serviced by a memtap talking
// to the memory server (§4.2-4.3). The demo then dirties pages remotely,
// pushes a differential update from the home, and prints transfer and
// latency statistics.
//
// Run with: go run ./examples/pageserver
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"oasis"
	"oasis/internal/rng"
)

func main() {
	secret := []byte("pageserver-example")
	const vmid = oasis.VMID(4242)
	alloc := 128 * oasis.MiB

	// --- Home host side -------------------------------------------------
	// Build the VM's memory image: sparse, mostly-zero pages, the way
	// real guests look.
	r := rng.New(1)
	home := oasis.NewImage(alloc)
	pages := home.NumPages()
	touched := 0
	for pfn := int64(0); pfn < pages; pfn++ {
		if !r.Bool(0.3) {
			continue
		}
		page := make([]byte, oasis.PageSize)
		for i := 0; i < 48; i++ {
			page[r.Intn(len(page))] = byte(r.Uint64())
		}
		if err := home.Write(oasis.PFN(pfn), page); err != nil {
			log.Fatal(err)
		}
		touched++
	}

	// Start the host's low-power memory server.
	srv := oasis.NewMemServer(secret, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Upload before suspending (the SAS write path, with per-page LZ
	// compression and zero elision).
	snap, n, err := oasis.EncodeImage(home)
	if err != nil {
		log.Fatal(err)
	}
	client, err := oasis.Dial(addr.String(), secret)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if err := client.PutImage(vmid, alloc, snap); err != nil {
		log.Fatal(err)
	}
	raw := float64(n) * float64(oasis.PageSize)
	fmt.Printf("home: uploaded %d pages (%.1f MiB) as %.1f MiB compressed (%.1fx) in %v\n",
		n, raw/(1<<20), float64(len(snap))/(1<<20), raw/float64(len(snap)), time.Since(start))
	fmt.Println("home: host enters S3; the memory server keeps serving pages")

	// --- Consolidation host side -----------------------------------------
	desc := oasis.NewVMDescriptor(vmid, "demo-desktop", alloc, 1)
	mt, err := oasis.NewMemtap(vmid, addr.String(), secret)
	if err != nil {
		log.Fatal(err)
	}
	defer mt.Close()
	pvm, err := oasis.NewPartialVM(desc, mt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cons: partial VM created with %d of %d pages present (descriptor only)\n",
		pvm.PresentPages(), pages)

	// The idle VM touches its working set on demand.
	// (Page-table frames travel with the descriptor, so the comparison
	// starts above them.)
	const workingSet = 2000
	ptPages := desc.PageTablePages
	start = time.Now()
	for i := 0; i < workingSet; i++ {
		pfn := oasis.PFN(ptPages + r.Int63n(pages-ptPages))
		want, _ := home.Read(pfn)
		got, err := pvm.Read(pfn)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("page %d corrupted in flight", pfn)
		}
	}
	fmt.Printf("cons: touched %d pages; %d faults serviced in %v (mean %v/fault)\n",
		workingSet, mt.Faults(), time.Since(start), mt.MeanLatency())
	fmt.Printf("cons: resident footprint %v in %d x 2 MiB chunks\n",
		pvm.FootprintBytes(), pvm.ChunksAllocated())

	// --- Differential upload ---------------------------------------------
	// The VM returns home, runs a while (dirtying pages), and is
	// consolidated again: only the delta is uploaded.
	epoch := home.NextEpoch()
	for i := 0; i < 200; i++ {
		pfn := oasis.PFN(r.Int63n(pages))
		if err := home.Write(pfn, bytes.Repeat([]byte{0xD1}, int(oasis.PageSize))); err != nil {
			log.Fatal(err)
		}
	}
	diff, dn, err := oasis.EncodeImageDiff(home, epoch)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.PutDiff(vmid, diff); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("home: differential upload of %d dirty pages, %.1f KiB (vs %.1f MiB full)\n",
		dn, float64(len(diff))/1024, float64(len(snap))/(1<<20))

	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d VM image(s), %d pages served (%v on the wire), %d pages uploaded\n",
		stats.VMs, stats.PagesServed, stats.BytesServed, stats.PagesUploaded)
}
