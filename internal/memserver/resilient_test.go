package memserver

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// fastResilient is a test config with tiny backoffs and a no-op-adjacent
// sleep so fault storms run in milliseconds.
func fastResilient() ResilientConfig {
	return ResilientConfig{
		MaxRetries:       5,
		MutatingRetries:  3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 6,
		BreakerCooldown:  50 * time.Millisecond,
		DialTimeout:      time.Second,
		OpTimeout:        2 * time.Second,
		JitterSeed:       1,
	}
}

// restartableServer runs a memserver that can be killed and brought back
// on the same address with the same image store, like a crashing daemon
// restarting from its persist dir.
type restartableServer struct {
	t      *testing.T
	store  *pagestore.Store
	addr   string
	mu     sync.Mutex
	server *Server
}

func newRestartableServer(t *testing.T) *restartableServer {
	t.Helper()
	rs := &restartableServer{t: t, store: pagestore.NewStore()}
	s := NewServerWithStore(testSecret, rs.store, t.Logf)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs.addr = addr.String()
	rs.server = s
	t.Cleanup(func() { rs.kill() })
	return rs
}

func (rs *restartableServer) kill() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.server != nil {
		rs.server.Close()
		rs.server = nil
	}
}

func (rs *restartableServer) restart() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.server != nil {
		return nil
	}
	s := NewServerWithStore(testSecret, rs.store, rs.t.Logf)
	// The old listener is closed, so the same port is free again.
	if _, err := s.Listen(rs.addr); err != nil {
		return err
	}
	rs.server = s
	return nil
}

func TestResilientReconnectsAfterServerRestart(t *testing.T) {
	rs := newRestartableServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 3, 40)

	rc, err := DialPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: fastResilient()})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.PutImage(42, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	// Crash the daemon, restart it with the same store, and fetch: the
	// resilient client must reconnect transparently inside one GetPage.
	rs.kill()
	if err := rs.restart(); err != nil {
		t.Fatal(err)
	}
	want, _ := src.Read(7)
	got, err := rc.GetPage(42, 7)
	if err != nil {
		t.Fatalf("GetPage after restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page mismatch after reconnect")
	}
	st := rc.ResilienceStats()
	if st.Reconnects == 0 {
		t.Fatalf("expected at least one reconnect, stats=%+v", st)
	}
	if st.State != BreakerClosed {
		t.Fatalf("breaker should be closed after recovery, got %v", st.State)
	}
}

func TestResilientRetriesThroughFaultStorm(t *testing.T) {
	rs := newRestartableServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 9, 64)

	// Wrap the client transport in a fault injector that resets ~20% of
	// reads and writes and tears some frames mid-write.
	inj := faultinject.New(11, faultinject.Config{ReadErr: 0.15, WriteErr: 0.05, PartialWrite: 0.05})
	cfg := fastResilient()
	// This test isolates retry/reconnect under a sustained storm; the
	// breaker's open/half-open behaviour has its own test below, and
	// here it would (correctly) keep re-opening and mask retry bugs.
	cfg.BreakerThreshold = 1 << 30
	cfg.Network = inj.Network(network.TCP)
	rc := NewPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: cfg})
	defer rc.Close()

	// Upload the image before the storm begins (the mutating-op retry
	// budget is deliberately small); the storm then batters the
	// fault-service read path, which is where a partial VM lives.
	inj.SetEnabled(false)
	if err := rc.PutImage(7, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	inj.SetEnabled(true)
	// Under a heavy storm an individual op may exhaust its retry budget;
	// what must never happen is a wrong page or a permanently wedged
	// client. Drive 200 fetches, allowing bounded op-level re-issue.
	failures := 0
	for i := 0; i < 200; i++ {
		pfn := pagestore.PFN(i % 64)
		want, _ := src.Read(pfn)
		var got []byte
		var err error
		for tries := 0; tries < 20; tries++ {
			got, err = rc.GetPage(7, pfn)
			if err == nil {
				break
			}
			failures++
			time.Sleep(5 * time.Millisecond) // ride out a breaker cooldown
		}
		if err != nil {
			t.Fatalf("GetPage %d wedged under fault storm: %v (stats %+v)", i, err, rc.ResilienceStats())
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted under fault storm", pfn)
		}
	}
	t.Logf("op-level failures re-issued: %d", failures)
	st := rc.ResilienceStats()
	if st.Retries == 0 || st.Reconnects == 0 {
		t.Fatalf("fault storm exercised no retries/reconnects: %+v (injector %v)", st, inj.Counts())
	}
	t.Logf("storm stats: %+v, injector: %v", st, inj.Counts())
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	rs := newRestartableServer(t)
	_, snap := makeSnapshot(t, 4*units.MiB, 5, 10)

	var transitions []string
	var tmu sync.Mutex
	cfg := fastResilient()
	cfg.BreakerThreshold = 3
	cfg.OnStateChange = func(from, to BreakerState) {
		tmu.Lock()
		transitions = append(transitions, fmt.Sprintf("%v->%v", from, to))
		tmu.Unlock()
	}
	cfg.DialTimeout = 200 * time.Millisecond
	rc, err := DialPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.PutImage(9, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	// Kill the server for good: ops must exhaust retries and trip the
	// breaker open.
	rs.kill()
	if _, err := rc.GetPage(9, 1); err == nil {
		t.Fatal("GetPage succeeded against a dead server")
	}
	if st := rc.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker state %v after exhausted retries, want open", st)
	}
	// While open and inside the cooldown, calls fail fast.
	if _, err := rc.GetPage(9, 1); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen during cooldown, got %v", err)
	}

	// After the cooldown, a half-open probe against a restarted server
	// closes the breaker again.
	if err := rs.restart(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	if _, err := rc.GetPage(9, 1); err != nil {
		t.Fatalf("GetPage after recovery: %v", err)
	}
	if st := rc.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker state %v after recovery, want closed", st)
	}
	tmu.Lock()
	defer tmu.Unlock()
	joined := fmt.Sprint(transitions)
	if len(transitions) < 3 {
		t.Fatalf("expected open/half-open/closed transitions, got %v", joined)
	}
}

func TestResilientConcurrentOpsDuringRestarts(t *testing.T) {
	rs := newRestartableServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 21, 64)

	cfg := fastResilient()
	cfg.MaxRetries = 8
	cfg.MaxBackoff = 20 * time.Millisecond
	rc, err := DialPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.PutImage(3, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var restarter sync.WaitGroup
	restarter.Add(1)
	go func() {
		defer restarter.Done()
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			rs.kill()
			time.Sleep(5 * time.Millisecond)
			if err := rs.restart(); err != nil {
				t.Errorf("restart: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pfn := pagestore.PFN((g*50 + i) % 64)
				got, err := rc.GetPage(3, pfn)
				if err != nil {
					// Breaker may open mid-restart; that is a legal
					// outcome, not corruption. Back off and continue.
					time.Sleep(2 * time.Millisecond)
					continue
				}
				want, _ := src.Read(pfn)
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: page %d corrupted", g, pfn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	restarter.Wait()
}

func TestMutatingOpsBoundedRetries(t *testing.T) {
	// Against a dead address, a mutating op must give up after
	// MutatingRetries attempts, not MaxRetries.
	cfg := fastResilient()
	dials := 0
	cfg.Network = netFunc(func(string, time.Time) (net.Conn, error) {
		dials++
		return nil, errors.New("synthetic dial failure")
	})
	rc := NewPool("127.0.0.1:1", testSecret, PoolConfig{Size: 1, Resilience: cfg})
	if err := rc.PutDiff(1, nil); err == nil {
		t.Fatal("PutDiff succeeded over a network whose dials fail")
	}
	if dials != cfg.MutatingRetries {
		t.Fatalf("mutating op dialed %d times, want %d", dials, cfg.MutatingRetries)
	}
}

func TestRemoteErrorsDoNotBurnRetries(t *testing.T) {
	rs := newRestartableServer(t)
	cfg := fastResilient()
	dials := 0
	cfg.Network = netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		dials++
		return network.TCP.Dial(addr, deadline)
	})
	rc := NewPool(rs.addr, testSecret, PoolConfig{Size: 1, Resilience: cfg})
	defer rc.Close()
	// Unknown VM: the server answers with a clean msgError. That must
	// surface once, with no retries and no breaker damage.
	if _, err := rc.GetPage(999, 0); err == nil {
		t.Fatal("GetPage of unknown VM succeeded")
	}
	if dials != 1 {
		t.Fatalf("remote error caused %d dials, want 1", dials)
	}
	if st := rc.ResilienceStats(); st.Retries != 0 || st.State != BreakerClosed {
		t.Fatalf("remote error perturbed resilience state: %+v", st)
	}
}
