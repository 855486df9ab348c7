//go:build !race

package memtap

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"oasis/internal/allocgate"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// The race detector's instrumentation adds allocations of its own, so
// the exact counts are held in uninstrumented builds only. Both gates run
// the real client over loopback against a real server, whose serving
// path allocates nothing (memserver's TestGetPagesWireFormZeroAlloc).

// Page kinds of an alloc-gate image.
const (
	kindZero = iota
	kindCompressible
	kindRaw
)

// allocImage serves a 4 MiB VM whose page i is of kind(i), and returns
// the server's address.
func allocImage(t *testing.T, vmid pagestore.VMID, kind func(pagestore.PFN) int) string {
	t.Helper()
	srv := memserver.NewServer(secret, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r := rng.New(uint64(vmid))
	im := pagestore.NewImage(4 * units.MiB)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		p := make([]byte, units.PageSize)
		switch kind(pfn) {
		case kindCompressible:
			copy(p, bytes.Repeat([]byte{byte(pfn), 0, 0, 0, 7, 7}, len(p)/6))
		case kindRaw:
			for i := range p {
				p[i] = byte(r.Uint64())
			}
		}
		if err := im.Write(pfn, p); err != nil {
			t.Fatal(err)
		}
	}
	srv.Store().Put(vmid, im)
	return addr.String()
}

// minMallocs returns the fewest heap allocations fn made over reps runs,
// each after its own setup: allocations by anything else running in the
// process only ever add to a run's count. The collector is held off for
// the whole measurement: a cycle landing inside a run costs a few
// allocations of its own, and each cycle empties the runtime's shared
// cache of wait records, which a run that parks a goroutine would then
// allocate afresh. For the same reason each counted run starts from a
// warmed scheduler (allocgate.WarmScheduler). One run before any warming
// is logged beside the result, so that what the runtime's goroutine
// bookkeeping adds to a cold process stays in view.
func minMallocs(tb testing.TB, reps int, setup func(), fn func()) uint64 {
	tb.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	count := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fn()
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	setup()
	unwarmed := count()
	best := uint64(math.MaxUint64)
	for range reps {
		setup()
		allocgate.WarmScheduler()
		best = min(best, count())
	}
	tb.Logf("%d allocations unwarmed, %d warmed (fewest of %d)", unwarmed, best, reps)
	return best
}

// TestPrefetchAllocatesOnePagePerInstall is the prefetch path's
// allocation gate: PrefetchRemaining — GetPages round trip, reply decode,
// one InstallPages per batch — allocates one page per installed non-zero
// page and a constant per batch, and nothing per zero page. Two images of
// the same geometry, one all compressible and one a mix of zero,
// compressible and raw pages, take the same batches; once each non-zero
// page's allocation is taken off, they must cost the same.
func TestPrefetchAllocatesOnePagePerInstall(t *testing.T) {
	const batch = 128
	shapes := []struct {
		name string
		kind func(pagestore.PFN) int
	}{
		{"compressible", func(pagestore.PFN) int { return kindCompressible }},
		{"mixed", func(pfn pagestore.PFN) int { return int(pfn % 3) }},
	}
	var perBatch []float64
	for i, s := range shapes {
		vmid := pagestore.VMID(90 + i)
		mt, err := NewWithOptions(vmid, allocImage(t, vmid, s.kind), secret, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer mt.Close()
		desc := hypervisor.NewDescriptor(vmid, "alloc", 4*units.MiB, 1)
		var pvm *hypervisor.PartialVM
		var installed int
		nonZero := 0
		for pfn := desc.PageTablePages; pfn < desc.Alloc.Pages(); pfn++ {
			if s.kind(pagestore.PFN(pfn)) != kindZero {
				nonZero++
			}
		}
		batches := int((desc.Alloc.Pages() - desc.PageTablePages + batch - 1) / batch)
		allocs := minMallocs(t, 5, func() {
			if pvm, err = hypervisor.NewPartialVM(desc, mt); err != nil {
				t.Fatal(err)
			}
		}, func() {
			installed, err = mt.PrefetchRemaining(pvm, batch)
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(installed) != desc.Alloc.Pages()-desc.PageTablePages {
			t.Fatalf("%s: installed %d pages", s.name, installed)
		}
		rest := float64(int(allocs)-nonZero) / float64(batches)
		t.Logf("%s: %d allocations for %d non-zero of %d pages in %d batches: %.2f a batch besides the pages",
			s.name, allocs, nonZero, installed, batches, rest)
		perBatch = append(perBatch, rest)
	}
	if perBatch[0] != perBatch[1] {
		t.Fatalf("allocations a batch besides one per non-zero page: %.2f all compressible, %.2f mixed; want equal",
			perBatch[0], perBatch[1])
	}
	if perBatch[0] > 32 || perBatch[0] < 0 {
		t.Fatalf("%.2f allocations a batch of %d besides the pages; want a handful", perBatch[0], batch)
	}
}

// TestPrefetchAllocationsAtEveryCoreCount holds the prefetch gate at
// every worker count: on one lane PrefetchRemaining runs a worker per
// CPU up to two, and no worker may add allocations per batch beyond the
// serial path's.
func TestPrefetchAllocationsAtEveryCoreCount(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			TestPrefetchAllocatesOnePagePerInstall(t)
		})
	}
}

// TestFaultAllocatesItsPageOnce is the demand fault's allocation gate:
// a fault on a compressible page, from the partial VM's Touch through
// memtap and the client's round trip, allocates the page it decodes
// once and keeps it, so it costs exactly one allocation more than a fault
// on a zero page; a raw page is kept where its reply arrived and costs
// none more.
func TestFaultAllocatesItsPageOnce(t *testing.T) {
	const faults = 200
	kinds := []int{kindZero, kindCompressible, kindRaw}
	allocs := make([]uint64, len(kinds))
	for i, k := range kinds {
		vmid := pagestore.VMID(95 + i)
		addr := allocImage(t, vmid, func(pagestore.PFN) int { return k })
		desc := hypervisor.NewDescriptor(vmid, "alloc", 4*units.MiB, 1)
		var mt *Memtap
		var pvm *hypervisor.PartialVM
		var err error
		allocs[i] = minMallocs(t, 5, func() {
			if mt != nil {
				mt.Close()
			}
			if mt, err = NewWithOptions(vmid, addr, secret, Options{}); err != nil {
				t.Fatal(err)
			}
			if pvm, err = hypervisor.NewPartialVM(desc, mt); err != nil {
				t.Fatal(err)
			}
			// One fault per touched 2 MiB chunk and table leaf first, so
			// the measured faults grow neither.
			for pfn := desc.PageTablePages; pfn < desc.Alloc.Pages(); pfn += 512 {
				if _, err := pvm.Touch(pagestore.PFN(pfn)); err != nil {
					t.Fatal(err)
				}
			}
		}, func() {
			for pfn := desc.PageTablePages + 1; pfn < desc.PageTablePages+1+faults; pfn++ {
				if _, err = pvm.Touch(pagestore.PFN(pfn)); err != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		mt.Close()
	}
	t.Logf("allocations for %d faults: zero %d, compressible %d, raw %d", faults, allocs[0], allocs[1], allocs[2])
	if got := int(allocs[1]) - int(allocs[0]); got != faults {
		t.Fatalf("%d faults on compressible pages allocate %d more times than on zero pages; want one page each", faults, got)
	}
	if allocs[2] != allocs[0] {
		t.Fatalf("%d faults on raw pages allocate %d times, on zero pages %d; want equal", faults, allocs[2], allocs[0])
	}
}

// TestFaultAllocatesOnlyItsPageTracedOrNot is the tracing half of the
// demand fault's allocation gate: a fault whose span the fault-path
// tracer samples in allocates exactly what one sampled out does, and
// either way a fault on a compressible page costs exactly one allocation,
// its page, more than a fault on a zero page. A span is recycled and its
// stages land in a ring slot's own array, so tracing costs a fault no
// allocation whether it records it or not.
func TestFaultAllocatesOnlyItsPageTracedOrNot(t *testing.T) {
	const faults = 200
	defer telemetry.FaultPath.SetSampling(telemetry.FaultSampling)
	kinds := []int{kindZero, kindCompressible}
	var allocs [2][2]uint64 // by sampling (out, in), then by kind
	for si, every := range []int{0, 1} {
		telemetry.FaultPath.SetSampling(every)
		for ki, k := range kinds {
			allocs[si][ki] = faultMallocs(t, pagestore.VMID(110+2*si+ki), k, faults)
		}
	}
	t.Logf("allocations for %d faults: sampled out zero %d, compressible %d; sampled in zero %d, compressible %d",
		faults, allocs[0][0], allocs[0][1], allocs[1][0], allocs[1][1])
	if allocs[1] != allocs[0] {
		t.Fatalf("%d traced faults allocate %v times (zero, compressible pages), untraced %v; want equal",
			faults, allocs[1], allocs[0])
	}
	if got := int(allocs[1][1]) - int(allocs[1][0]); got != faults {
		t.Fatalf("%d traced faults on compressible pages allocate %d more times than on zero pages; want one page each", faults, got)
	}
}

// faultMallocs serves vmid's pages, all of kind, and returns the fewest
// allocations (minMallocs) that faults demand faults through a memtap
// and a partial VM make, each on a page of its own.
func faultMallocs(t *testing.T, vmid pagestore.VMID, kind, faults int) uint64 {
	t.Helper()
	addr := allocImage(t, vmid, func(pagestore.PFN) int { return kind })
	desc := hypervisor.NewDescriptor(vmid, "alloc", 4*units.MiB, 1)
	var mt *Memtap
	var pvm *hypervisor.PartialVM
	var err error
	n := minMallocs(t, 5, func() {
		if mt != nil {
			mt.Close()
		}
		if mt, err = NewWithOptions(vmid, addr, secret, Options{}); err != nil {
			t.Fatal(err)
		}
		if pvm, err = hypervisor.NewPartialVM(desc, mt); err != nil {
			t.Fatal(err)
		}
		// The first fault of each 2 MiB chunk and table leaf grows them;
		// the counted faults grow neither.
		for pfn := desc.PageTablePages; pfn < desc.Alloc.Pages(); pfn += 512 {
			if _, err := pvm.Touch(pagestore.PFN(pfn)); err != nil {
				t.Fatal(err)
			}
		}
	}, func() {
		for pfn := desc.PageTablePages + 1; pfn < desc.PageTablePages+1+int64(faults); pfn++ {
			if _, err = pvm.Touch(pagestore.PFN(pfn)); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mt.Close()
	return n
}
