package memtap

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/hypervisor"
	"oasis/internal/memserver"
	"oasis/internal/migration"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/units"
	"oasis/internal/vm"
	"oasis/internal/workload"
)

var secret = []byte("memtap-test")

// startBackend brings up a real memory server preloaded with a VM image
// and returns its address plus the source image for verification.
func startBackend(t testing.TB, vmid pagestore.VMID, alloc units.Bytes) (string, *pagestore.Image) {
	t.Helper()
	srv := memserver.NewServer(secret, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	r := rng.New(uint64(vmid))
	im := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		p := bytes.Repeat([]byte{byte(pfn%250 + 1)}, int(units.PageSize))
		p[0] = byte(r.Uint64()) // make pages distinct-ish
		if err := im.Write(pfn, p); err != nil {
			t.Fatal(err)
		}
	}
	srv.Store().Put(vmid, im)
	return addr.String(), im
}

func TestMemtapServicesFaults(t *testing.T) {
	addr, src := startBackend(t, 1234, 4*units.MiB)
	mt, err := New(1234, addr, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()

	desc := hypervisor.NewDescriptor(1234, "t", 4*units.MiB, 1)
	vm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	pfn := pagestore.PFN(desc.PageTablePages + 3)
	got, err := vm.Read(pfn)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.Read(pfn)
	if !bytes.Equal(got, want) {
		t.Fatal("fetched page does not match the memory-server image")
	}
	if mt.Faults() != 1 {
		t.Fatalf("Faults = %d, want 1", mt.Faults())
	}
	if mt.FetchedBytes() != units.PageSize {
		t.Fatalf("FetchedBytes = %v", mt.FetchedBytes())
	}
	if mt.MeanLatency() <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestMemtapRejectsWrongVM(t *testing.T) {
	addr, _ := startBackend(t, 7, 1*units.MiB)
	mt, err := New(7, addr, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	if _, err := mt.FetchPage(8, 0); err == nil {
		t.Error("memtap served a VM it is not configured for")
	}
}

func TestMemtapDialFailure(t *testing.T) {
	if _, err := New(1, "127.0.0.1:1", secret); err == nil {
		t.Error("dial to dead port succeeded")
	}
}

func TestPrefetchRemainingConvertsToFull(t *testing.T) {
	addr, src := startBackend(t, 31, 2*units.MiB)
	mt, err := New(31, addr, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	desc := hypervisor.NewDescriptor(31, "prefetch", 2*units.MiB, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty one local page first; prefetch must not clobber it.
	local := bytes.Repeat([]byte{0x99}, int(units.PageSize))
	if err := pvm.Write(100, local); err != nil {
		t.Fatal(err)
	}
	n, err := mt.PrefetchRemaining(pvm, 64)
	if err != nil {
		t.Fatal(err)
	}
	total := desc.Alloc.Pages()
	if pvm.PresentPages() != total {
		t.Fatalf("present %d of %d pages after prefetch", pvm.PresentPages(), total)
	}
	if int64(n) != total-desc.PageTablePages-1 {
		t.Fatalf("installed %d pages, want %d", n, total-desc.PageTablePages-1)
	}
	// No faults were needed, and contents match the image.
	if mt.Faults() != 0 {
		t.Fatalf("prefetch caused %d faults", mt.Faults())
	}
	for _, pfn := range []pagestore.PFN{10, 200, pagestore.PFN(total - 1)} {
		if pfn == 100 {
			continue
		}
		want, _ := src.Read(pfn)
		got, err := pvm.Read(pfn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d mismatch after prefetch", pfn)
		}
	}
	// The locally written page survived and is the only dirty one.
	got, _ := pvm.Read(100)
	if !bytes.Equal(got, local) {
		t.Fatal("prefetch clobbered a locally written page")
	}
	if pages := pvm.DirtyPages(); len(pages) != 1 || pages[0] != 100 {
		t.Fatalf("dirty pages = %v, want [100]", pages)
	}
}

// TestWorkloadDrivenFaulting drives a real partial VM with the calibrated
// idle access process (Figure 1's model) and checks that the bytes
// fetched over the wire match what the analytic model predicts: the two
// layers of the reproduction — functional and modelled — agree.
func TestWorkloadDrivenFaulting(t *testing.T) {
	alloc := 8 * units.MiB
	addr, _ := startBackend(t, 77, alloc)
	mt, err := New(77, addr, secret)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	desc := hypervisor.NewDescriptor(77, "wl", alloc, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}

	// Replay 10 simulated minutes of desktop idle bursts, mapping each
	// burst onto the guest address space. The VM is small, so accesses
	// wrap and re-touch resident pages — exactly the working-set effect
	// that bounds on-demand traffic.
	proc := workload.NewAccessProcess(vm.Desktop, rng.New(9))
	r := rng.New(10)
	var elapsed time.Duration
	touched := int64(0)
	npages := alloc.Pages()
	for elapsed < 10*time.Minute {
		gap, pages := proc.NextBurst()
		elapsed += gap
		base := r.Int63n(npages)
		for i := 0; i < pages; i++ {
			pfn := pagestore.PFN((base + int64(i)) % npages)
			if _, err := pvm.Touch(pfn); err != nil {
				t.Fatal(err)
			}
			touched++
		}
	}
	// Fetched bytes are bounded by the allocation (the working set here)
	// and must be non-trivial.
	fetched := mt.FetchedBytes()
	if fetched <= 0 || fetched > alloc {
		t.Fatalf("fetched %v for an %v VM", fetched, alloc)
	}
	// The model's prediction for the same episode: rate x time, capped
	// by the working set (= the whole small VM).
	model := migration.MicroBenchModel()
	predicted := model.OnDemandFetch(migration.DesktopRate, alloc, elapsed)
	ratio := float64(fetched) / float64(predicted)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("functional fetch %v vs model %v (ratio %.2f)", fetched, predicted, ratio)
	}
}

// stubClient is an in-process PageClient whose GetPages can run a hook
// before returning, letting tests race the prefetcher against guest
// activity deterministically.
type stubClient struct {
	src        *pagestore.Image
	beforeRet  func(pfns []pagestore.PFN)
	closeCalls int
}

func (s *stubClient) GetPage(id pagestore.VMID, pfn pagestore.PFN) ([]byte, error) {
	return s.src.Read(pfn)
}

func (s *stubClient) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	out := make(map[pagestore.PFN][]byte, len(pfns))
	for _, pfn := range pfns {
		p, err := s.src.Read(pfn)
		if err != nil {
			return nil, err
		}
		out[pfn] = p
	}
	if s.beforeRet != nil {
		s.beforeRet(pfns)
	}
	return out, nil
}

func (s *stubClient) Close() error { s.closeCalls++; return nil }

// TestPrefetchAccountingSkipsRacedPages verifies the satellite fix: when
// a guest write lands between GetPages and Install, the skipped install
// must not be counted in FetchedBytes or the installed-page total.
func TestPrefetchAccountingSkipsRacedPages(t *testing.T) {
	alloc := 2 * units.MiB
	src := pagestore.NewImage(alloc)
	for pfn := pagestore.PFN(0); int64(pfn) < src.NumPages(); pfn++ {
		if err := src.Write(pfn, bytes.Repeat([]byte{byte(pfn%251 + 1)}, int(units.PageSize))); err != nil {
			t.Fatal(err)
		}
	}
	desc := hypervisor.NewDescriptor(55, "race", alloc, 1)

	var pvm *hypervisor.PartialVM
	var raced atomic.Int64 // the prefetch's workers run the hook concurrently
	local := bytes.Repeat([]byte{0xAB}, int(units.PageSize))
	stub := &stubClient{src: src, beforeRet: func(pfns []pagestore.PFN) {
		// The guest writes the first page of every batch after the
		// server has already shipped it: the install must lose.
		if err := pvm.Write(pfns[0], local); err != nil {
			t.Error(err)
		}
		raced.Add(1)
	}}
	mt := NewWithClient(55, stub)
	var err error
	pvm, err = hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}

	installed, err := mt.PrefetchRemaining(pvm, 64)
	if err != nil {
		t.Fatal(err)
	}
	total := desc.Alloc.Pages()
	if pvm.PresentPages() != total {
		t.Fatalf("present %d of %d pages", pvm.PresentPages(), total)
	}
	want := int(total - desc.PageTablePages - raced.Load())
	if installed != want {
		t.Fatalf("installed = %d, want %d (%d raced writes)", installed, want, raced.Load())
	}
	if got, want := mt.FetchedBytes(), units.Bytes(installed)*units.PageSize; got != want {
		t.Fatalf("FetchedBytes = %v, want %v: raced pages were counted", got, want)
	}
	// The guest's writes survived.
	for _, pfn := range pvm.DirtyPages() {
		got, _ := pvm.Read(pfn)
		if !bytes.Equal(got, local) {
			t.Fatalf("pfn %d: prefetch clobbered a raced guest write", pfn)
		}
	}
}

// fastCfg is a millisecond-scale resilience config for fault tests.
func fastCfg() memserver.ResilientConfig {
	return memserver.ResilientConfig{
		MaxRetries:       6,
		MutatingRetries:  3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		BreakerThreshold: 1 << 30, // breaker behaviour tested separately
		BreakerCooldown:  20 * time.Millisecond,
		DialTimeout:      time.Second,
		OpTimeout:        2 * time.Second,
		JitterSeed:       7,
	}
}

// restartableBackend is a memory server that can be killed and revived
// on the same address with the same store, like a daemon restarting from
// its persist dir.
type restartableBackend struct {
	t     *testing.T
	store *pagestore.Store
	addr  string
	mu    sync.Mutex
	srv   *memserver.Server
}

func newRestartableBackend(t *testing.T, vmid pagestore.VMID, alloc units.Bytes) (*restartableBackend, *pagestore.Image) {
	t.Helper()
	rb := &restartableBackend{t: t, store: pagestore.NewStore()}
	im := pagestore.NewImage(alloc)
	r := rng.New(uint64(vmid) + 99)
	for pfn := pagestore.PFN(0); int64(pfn) < im.NumPages(); pfn++ {
		p := bytes.Repeat([]byte{byte(pfn%250 + 1)}, int(units.PageSize))
		p[1] = byte(r.Uint64())
		if err := im.Write(pfn, p); err != nil {
			t.Fatal(err)
		}
	}
	rb.store.Put(vmid, im)
	srv := memserver.NewServerWithStore(secret, rb.store, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rb.addr = addr.String()
	rb.srv = srv
	t.Cleanup(func() { rb.kill() })
	return rb, im
}

func (rb *restartableBackend) kill() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.srv != nil {
		rb.srv.Close()
		rb.srv = nil
	}
}

func (rb *restartableBackend) restart() error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.srv != nil {
		return nil
	}
	srv := memserver.NewServerWithStore(secret, rb.store, rb.t.Logf)
	if _, err := srv.Listen(rb.addr); err != nil {
		return err
	}
	rb.srv = srv
	return nil
}

// verifyIdentical asserts every page of the partial VM matches the
// source image (modulo pages the test wrote locally, passed in skip;
// page-table frames travel with the descriptor, not the pager, so they
// are excluded too).
func verifyIdentical(t *testing.T, pvm *hypervisor.PartialVM, src *pagestore.Image, skip map[pagestore.PFN]bool) {
	t.Helper()
	for pfn := pagestore.PFN(pvm.Desc().PageTablePages); int64(pfn) < src.NumPages(); pfn++ {
		if skip[pfn] {
			continue
		}
		got, err := pvm.Read(pfn)
		if err != nil {
			t.Fatalf("read pfn %d: %v", pfn, err)
		}
		want, _ := src.Read(pfn)
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d differs from the source image", pfn)
		}
	}
}

// killOnNthBatch is a pool whose nth GetPages first kills the server and
// has it restarted shortly after: the outage lands while the prefetch is
// provably under way, however fast the batches before it ran.
type killOnNthBatch struct {
	*memserver.ClientPool
	rb    *restartableBackend
	n     int64
	calls atomic.Int64
	done  chan struct{}
}

func (k *killOnNthBatch) GetPages(id pagestore.VMID, pfns []pagestore.PFN) (map[pagestore.PFN][]byte, error) {
	if k.calls.Add(1) == k.n {
		k.rb.kill()
		go func() {
			defer close(k.done)
			time.Sleep(10 * time.Millisecond)
			if err := k.rb.restart(); err != nil {
				k.rb.t.Errorf("restart: %v", err)
			}
		}()
	}
	return k.ClientPool.GetPages(id, pfns)
}

// TestPrefetchSurvivesServerRestart is the first leg of the fault
// matrix: the memory server is killed and restarted mid-prefetch; the
// resilient client must resume and the VM must end byte-identical to
// its image.
func TestPrefetchSurvivesServerRestart(t *testing.T) {
	rb, src := newRestartableBackend(t, 61, 8*units.MiB)
	rc, err := memserver.DialPool(rb.addr, secret, memserver.PoolConfig{Size: 1, Resilience: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the server at the fourth batch, once earlier ones have landed.
	client := &killOnNthBatch{ClientPool: rc, rb: rb, n: 4, done: make(chan struct{})}
	mt := NewWithClient(61, client)
	defer mt.Close()
	desc := hypervisor.NewDescriptor(61, "restart", 8*units.MiB, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}

	// A single PrefetchRemaining may fail if an op exhausts its retry
	// budget during the outage window; re-driving it (what the agent's
	// promotion path does) must converge.
	var installed int
	for tries := 0; ; tries++ {
		n, err := mt.PrefetchRemaining(pvm, 16)
		installed += n
		if err == nil {
			break
		}
		if tries > 50 {
			t.Fatalf("prefetch never converged across restart: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-client.done
	if pvm.PresentPages() != desc.Alloc.Pages() {
		t.Fatalf("present %d of %d pages", pvm.PresentPages(), desc.Alloc.Pages())
	}
	if got := mt.Resilience(); got.Reconnects == 0 {
		t.Fatalf("restart exercised no reconnects: %+v", got)
	}
	verifyIdentical(t, pvm, src, nil)
}

// TestPrefetchSurvivesFaultStorm is the second leg of the fault matrix:
// the transport resets reads, tears frames mid-write and drops dials
// while the prefetcher streams the image; the VM must still end
// byte-identical.
func TestPrefetchSurvivesFaultStorm(t *testing.T) {
	rb, src := newRestartableBackend(t, 62, 8*units.MiB)
	inj := faultinject.New(23, faultinject.Config{
		DialFail: 0.1, ReadErr: 0.08, WriteErr: 0.04, PartialWrite: 0.04,
	})
	cfg := fastCfg()
	cfg.Network = inj.Network(network.TCP)
	rc := memserver.NewPool(rb.addr, secret, memserver.PoolConfig{Size: 1, Resilience: cfg})
	mt := NewWithClient(62, rc)
	defer mt.Close()
	desc := hypervisor.NewDescriptor(62, "storm", 8*units.MiB, 1)
	pvm, err := hypervisor.NewPartialVM(desc, mt)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a local page before the storm; it must survive untouched.
	local := bytes.Repeat([]byte{0x5C}, int(units.PageSize))
	if err := pvm.Write(33, local); err != nil {
		t.Fatal(err)
	}

	for tries := 0; ; tries++ {
		_, err := mt.PrefetchRemaining(pvm, 32)
		if err == nil {
			break
		}
		if tries > 100 {
			t.Fatalf("prefetch never converged under fault storm: %v (stats %+v, injector %v)",
				err, mt.Resilience(), inj.Counts())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if pvm.PresentPages() != desc.Alloc.Pages() {
		t.Fatalf("present %d of %d pages", pvm.PresentPages(), desc.Alloc.Pages())
	}
	st := mt.Resilience()
	if st.Retries == 0 && st.Reconnects == 0 {
		t.Fatalf("storm exercised no resilience: %+v (injector %v)", st, inj.Counts())
	}
	t.Logf("storm: %+v, injector %v", st, inj.Counts())
	verifyIdentical(t, pvm, src, map[pagestore.PFN]bool{33: true})
	if got, _ := pvm.Read(33); !bytes.Equal(got, local) {
		t.Fatal("fault storm clobbered the locally written page")
	}
}

// TestMemtapReportsDegraded: when the memory server is gone long enough
// for the breaker to open, the memtap flags the VM degraded and wraps
// fault errors in ErrDegraded so the agent can promote instead of wedge.
func TestMemtapReportsDegraded(t *testing.T) {
	rb, _ := newRestartableBackend(t, 63, 1*units.MiB)
	cfg := fastCfg()
	cfg.MaxRetries = 3
	cfg.BreakerThreshold = 2
	cfg.DialTimeout = 200 * time.Millisecond
	rc, err := memserver.DialPool(rb.addr, secret, memserver.PoolConfig{Size: 1, Resilience: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mt := NewWithClient(63, rc)
	defer mt.Close()
	if mt.Degraded() {
		t.Fatal("healthy memtap reports degraded")
	}

	rb.kill()
	_, err = mt.FetchPage(63, 0)
	if err == nil {
		t.Fatal("FetchPage succeeded against a dead server")
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded after breaker opened, got %v", err)
	}
	if !mt.Degraded() {
		t.Fatal("memtap not degraded after breaker opened")
	}
	// Fail-fast while open.
	if _, err := mt.FetchPage(63, 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded while open, got %v", err)
	}

	// Recovery: server returns, cooldown passes, probe closes breaker.
	if err := rb.restart(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	if _, err := mt.FetchPage(63, 0); err != nil {
		t.Fatalf("FetchPage after recovery: %v", err)
	}
	if mt.Degraded() {
		t.Fatal("memtap still degraded after recovery")
	}
}

// TestNonResilientClientNeverDegraded: Degraded is meaningful only for
// breaker-bearing clients.
func TestNonResilientClientNeverDegraded(t *testing.T) {
	src := pagestore.NewImage(1 * units.MiB)
	mt := NewWithClient(1, &stubClient{src: src})
	if mt.Degraded() {
		t.Fatal("stub-backed memtap reports degraded")
	}
	if st := mt.Resilience(); st != (memserver.ResilienceStats{}) {
		t.Fatalf("stub-backed memtap has resilience stats: %+v", st)
	}
}
