package memtap

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"oasis/internal/hypervisor"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// overlapProbe is a PageClient whose GetPages holds each call until a
// second one is outstanding or the probe's window has closed, and
// records the most calls it ever saw outstanding at once.
type overlapProbe struct {
	PageClient
	deadline time.Time

	mu     sync.Mutex
	cur    int
	peak   int
	second chan struct{} // closed when two calls are outstanding
}

func (p *overlapProbe) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	p.mu.Lock()
	p.cur++
	if p.cur > p.peak {
		p.peak = p.cur
		if p.peak == 2 {
			close(p.second)
		}
	}
	p.mu.Unlock()
	select {
	case <-p.second:
	case <-time.After(time.Until(p.deadline)):
	}
	pages, err := p.PageClient.GetPages(id, pfns)
	p.mu.Lock()
	p.cur--
	p.mu.Unlock()
	return pages, err
}

// TestPrefetchKeepsABatchPerCPU: with the default options — one lane —
// PrefetchRemaining keeps one batch in flight per CPU up to two, the
// most one lane keeps busy: at one CPU exactly one, at four still two.
func TestPrefetchKeepsABatchPerCPU(t *testing.T) {
	const window = 500 * time.Millisecond
	alloc := 1 * units.MiB
	src := seededImage(t, alloc)
	for _, c := range []struct{ procs, want int }{{2, 2}, {1, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", c.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			probe := &overlapProbe{
				PageClient: &stubClient{src: src},
				deadline:   time.Now().Add(window),
				second:     make(chan struct{}),
			}
			mt := NewWithClient(70, probe)
			defer mt.Close()
			pvm, err := hypervisor.NewPartialVM(hypervisor.NewDescriptor(70, "percpu", alloc, 1), mt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mt.PrefetchRemaining(pvm, 16); err != nil {
				t.Fatal(err)
			}
			if probe.peak != c.want {
				t.Fatalf("at most %d GetPages batches outstanding; want %d", probe.peak, c.want)
			}
			verifyIdentical(t, pvm, src, nil)
		})
	}
}

// TestPrefetchWorkers pins the worker count: a batch per lane, and a
// second per lane while CPUs allow.
func TestPrefetchWorkers(t *testing.T) {
	for _, c := range []struct{ lanes, procs, want int }{
		{1, 1, 1}, {1, 2, 2}, {1, 64, 2},
		{2, 1, 2}, {2, 2, 2}, {2, 3, 3}, {2, 64, 4},
		{4, 2, 4}, {4, 64, 8},
	} {
		if got := prefetchWorkers(c.lanes, c.procs); got != c.want {
			t.Errorf("prefetchWorkers(%d lanes, %d CPUs) = %d; want %d", c.lanes, c.procs, got, c.want)
		}
	}
}

// TestPrefetchSameVMAtEveryCoreCount converts the same partial VM over
// a real connection at several core counts, after guest faults that
// redirect the scan: every conversion ends byte-identical to the source,
// and every pageable page is installed by exactly one fault or one
// prefetch.
func TestPrefetchSameVMAtEveryCoreCount(t *testing.T) {
	alloc := 4 * units.MiB
	addr, src := startBackend(t, 71, alloc)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			mt, err := NewWithOptions(71, addr, secret, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mt.Close()
			desc := hypervisor.NewDescriptor(71, "cores", alloc, 1)
			pvm, err := hypervisor.NewPartialVM(desc, mt)
			if err != nil {
				t.Fatal(err)
			}
			for _, pfn := range []pagestore.PFN{700, 300, 900, 301} {
				if _, err := pvm.Touch(pfn); err != nil {
					t.Fatal(err)
				}
			}
			installed, err := mt.PrefetchRemaining(pvm, 64)
			if err != nil {
				t.Fatal(err)
			}
			pageable := desc.Alloc.Pages() - desc.PageTablePages
			if got := int64(installed) + mt.Faults(); got != pageable {
				t.Fatalf("%d installs + %d faults = %d; want the %d pageable pages", installed, mt.Faults(), got, pageable)
			}
			if mt.PrefetchReorders() == 0 {
				t.Fatal("the guest's faults redirected no batch")
			}
			verifyIdentical(t, pvm, src, nil)
		})
	}
}

// BenchmarkFaultDuringPrefetch times demand faults taken while
// PrefetchRemaining converts the same VM over the same connection. On
// one lane a fault's GetPage can queue behind as many batch exchanges
// as there are workers (two at most); p50 and p99 report what it waits
// for, at the 256-page batch of the benchmark of record and the
// 1024-page batch of the agent's post-copy adopt, which converts while
// the VM runs.
func BenchmarkFaultDuringPrefetch(b *testing.B) {
	const alloc = 16 * units.MiB
	addr, _ := startBackend(b, 72, alloc)
	for _, batch := range []int{256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			faultDuringPrefetch(b, addr, alloc, batch)
		})
	}
}

func faultDuringPrefetch(b *testing.B, addr string, alloc units.Bytes, batch int) {
	desc := hypervisor.NewDescriptor(72, "bench", alloc, 1)
	var lat []time.Duration
	b.ResetTimer()
	for range b.N {
		mt, err := NewWithOptions(72, addr, secret, Options{})
		if err != nil {
			b.Fatal(err)
		}
		pvm, err := hypervisor.NewPartialVM(desc, mt)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := mt.PrefetchRemaining(pvm, batch)
			done <- err
		}()
		// Fault from the top of the VM down, where the ascending
		// prefetch arrives last, until the prefetch is done.
		pfn := pagestore.PFN(desc.Alloc.Pages() - 1)
	faults:
		for ; pfn >= pagestore.PFN(desc.PageTablePages); pfn-- {
			select {
			case err := <-done:
				if err != nil {
					b.Fatal(err)
				}
				break faults
			default:
			}
			t0 := time.Now()
			faulted, err := pvm.Touch(pfn)
			if err != nil {
				b.Fatal(err)
			}
			if faulted {
				lat = append(lat, time.Since(t0))
			}
		}
		if pfn < pagestore.PFN(desc.PageTablePages) {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
		mt.Close()
	}
	if len(lat) == 0 {
		b.Fatal("no fault landed during a prefetch")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "fault-p50-µs")
	b.ReportMetric(float64(lat[len(lat)*99/100])/1e3, "fault-p99-µs")
	b.ReportMetric(float64(len(lat))/float64(b.N), "faults/op")
}
