package agent

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/units"
	"oasis/internal/wire"
)

// stubHost is a bare wire server that answers Agent.Stats — a host
// agent reduced to the RPC surface the manager's roster cares about.
type stubHost struct {
	srv   *wire.Server
	addr  string
	gate  chan struct{} // non-nil: Stats blocks until closed
	stats Stats
}

func startStubHost(t *testing.T, name string, gate chan struct{}) *stubHost {
	t.Helper()
	s := &stubHost{srv: wire.NewServer(nil), gate: gate}
	s.stats = Stats{Name: name}
	wire.Handle(s.srv, "Agent.Stats", func(struct{}, []byte) (any, []byte, error) {
		if s.gate != nil {
			<-s.gate
		}
		return s.stats, nil, nil
	})
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = addr.String()
	t.Cleanup(func() { s.srv.Close() })
	return s
}

// TestCreateVMSurfacesScanErrors: an all-hosts-unreachable fleet must
// report the joined per-host scan errors, not the same generic message
// an all-suspended fleet produces — the regression the serial loop's
// silent `continue` used to cause.
func TestCreateVMSurfacesScanErrors(t *testing.T) {
	m, agents := startHosts(t, 2)
	defer m.Close()

	// Kill both agents: every stats scan now fails at the wire.
	for _, a := range agents {
		a.Close()
	}
	_, err := m.CreateVM(CreateVMArgs{VMID: 1, Alloc: units.MiB})
	if err == nil {
		t.Fatal("CreateVM succeeded against a dead fleet")
	}
	if !strings.Contains(err.Error(), "no powered host available") {
		t.Errorf("error lost the headline: %v", err)
	}
	if !strings.Contains(err.Error(), "2/2 scans failed") {
		t.Errorf("error does not count the failed scans: %v", err)
	}
	// Both hosts' individual failures must be present (errors.Join).
	for _, a := range agents {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("joined error omits host %s: %v", a.Name, err)
		}
	}
}

// TestCreateVMAllSuspendedIsNotAnError-shaped-like-an-outage: when every
// host answers but is suspended, the error must NOT claim scans failed.
func TestCreateVMAllSuspendedDistinctFromUnreachable(t *testing.T) {
	m, agents := startHosts(t, 2)
	defer m.Close()
	for _, a := range agents {
		if err := m.Suspend(a.Name); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.CreateVM(CreateVMArgs{VMID: 1, Alloc: units.MiB})
	if err == nil {
		t.Fatal("CreateVM succeeded with every host suspended")
	}
	if strings.Contains(err.Error(), "scans failed") {
		t.Errorf("all-suspended fleet misreported as unreachable: %v", err)
	}
}

// TestManagerClosedRefusesOps: after Close, every operation fails fast
// and AddHost does not leak its freshly dialed client.
func TestManagerClosedRefusesOps(t *testing.T) {
	stub := startStubHost(t, "s", nil)
	m := NewManager()
	if err := m.AddHost("s", stub.addr); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent

	if err := m.AddHost("late", stub.addr); !errors.Is(err, errClosed) {
		t.Errorf("AddHost after Close = %v, want errClosed", err)
	}
	if _, err := m.CreateVM(CreateVMArgs{VMID: 1, Alloc: units.MiB}); !errors.Is(err, errClosed) {
		t.Errorf("CreateVM after Close = %v, want errClosed", err)
	}
	if _, err := m.HostStats("s"); !errors.Is(err, errClosed) {
		t.Errorf("HostStats after Close = %v, want errClosed", err)
	}
	if _, err := m.RefreshStats(); !errors.Is(err, errClosed) {
		t.Errorf("RefreshStats after Close = %v, want errClosed", err)
	}
	if len(m.Hosts()) != 0 {
		t.Error("roster not emptied by Close")
	}
}

// TestRegistryHammer is the satellite race hammer: 32 goroutines slam
// AddHost / CreateVM / HostStats / RefreshStats / DegradedVMs while one
// of them closes the manager mid-storm. Under -race this proves the
// lifecycle contract: operations either complete before Close or fail
// with errClosed, and no RPC client is ever used after Close closed it.
func TestRegistryHammer(t *testing.T) {
	// A few real agents (full RPC surface for CreateVM) plus stub hosts
	// for registration churn.
	m, agents := startHosts(t, 3)
	stub := startStubHost(t, "stub", nil)

	const workers = 32
	const opsPerWorker = 60
	var wg sync.WaitGroup
	var closed atomic.Bool

	check := func(err error) {
		if err == nil || errors.Is(err, errClosed) {
			return
		}
		// Races between a successful op and Close can surface as wire
		// errors on a closing conn only if a client outlived Close —
		// which the lifecycle lock forbids. Anything else here is a
		// real failure... except legitimate RPC rejections (duplicate
		// VMID, suspended host), which carry a RemoteError.
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			return
		}
		t.Errorf("unexpected error: %v", err)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				switch (w + i) % 5 {
				case 0:
					check(m.AddHost(fmt.Sprintf("stub-%d-%d", w, i), stub.addr))
				case 1:
					_, err := m.CreateVM(CreateVMArgs{
						VMID: pagestore.VMID(1000 + w*opsPerWorker + i), Alloc: units.MiB})
					check(err)
				case 2:
					_, err := m.HostStats(agents[w%len(agents)].Name)
					check(err)
				case 3:
					_, err := m.RefreshStats()
					check(err)
				case 4:
					_, err := m.DegradedVMs()
					check(err)
				}
				if w == 7 && i == opsPerWorker/2 {
					m.Close()
					closed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if !closed.Load() {
		t.Fatal("hammer never closed the manager")
	}
	// Post-close: everything refuses.
	if _, err := m.RefreshStats(); !errors.Is(err, errClosed) {
		t.Errorf("RefreshStats after storm = %v, want errClosed", err)
	}
}
