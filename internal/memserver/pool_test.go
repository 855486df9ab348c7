package memserver

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

func TestPoolBasicOps(t *testing.T) {
	_, addr := startServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 11, 48)

	cfg := PoolConfig{Size: 3, Resilience: fastResilient()}
	p, err := DialPool(addr, testSecret, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 3 {
		t.Fatalf("Size = %d, want 3", p.Size())
	}
	if err := p.PutImage(7, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	want, _ := src.Read(12)
	got, err := p.GetPage(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("GetPage mismatch through pool")
	}
	pages, err := p.GetPages(7, []pagestore.PFN{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 4 {
		t.Fatalf("GetPages returned %d pages", len(pages))
	}
	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.VMs != 1 {
		t.Fatalf("server sees %d VMs", st.VMs)
	}
	if got := p.BreakerState(); got != BreakerClosed {
		t.Fatalf("aggregate breaker %v after healthy traffic", got)
	}
	if rs := p.ResilienceStats(); rs.Failures != 0 || rs.State != BreakerClosed {
		t.Fatalf("unexpected resilience stats %+v", rs)
	}
}

// TestPoolLeastLoadedDispatch pins the dispatch policy: with no load every
// lane is drained round-robin-ish by least-inflight, and held acquisitions
// spread across all lanes before any lane is doubled up.
func TestPoolLeastLoadedDispatch(t *testing.T) {
	p := NewPool("", nil, PoolConfig{Size: 4, Resilience: ResilientConfig{Network: noDial}})
	seen := make(map[int]int)
	var held []int
	for i := 0; i < 4; i++ {
		lane := p.acquire()
		seen[lane]++
		held = append(held, lane)
	}
	if len(seen) != 4 {
		t.Fatalf("4 held acquisitions used %d lanes, want all 4 (dispatch convoyed)", len(seen))
	}
	// A fifth acquisition must double up on some lane, not fail.
	lane := p.acquire()
	if seen[lane] != 1 {
		t.Fatalf("fifth acquisition landed on lane %d with inflight %d", lane, seen[lane])
	}
	p.release(lane)
	for _, l := range held {
		p.release(l)
	}
}

// TestParkedDialDoesNotStallBreakerOrSiblings pins the pool's locking
// rule: a lane dials under its own callMu, never under the pool's mutex.
// A dial parked on lane 0 (here: a network whose Dial parks on a channel,
// as a black-holed server would park it) must not keep anyone from
// reading the breaker — memtap's Degraded() sits on the agent's recovery
// path — nor stall a call dispatched to lane 1.
func TestParkedDialDoesNotStallBreakerOrSiblings(t *testing.T) {
	_, addr := startServer(t)
	parked := make(chan struct{})
	release := make(chan struct{})
	var dials atomic.Int32
	cfg := fastResilient()
	cfg.Network = netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		if dials.Add(1) == 1 {
			close(parked)
			<-release
		}
		return network.TCP.Dial(addr, deadline)
	})
	p := NewPool(addr, testSecret, PoolConfig{Size: 2, Resilience: cfg})
	defer p.Close()
	var unpark sync.Once
	defer unpark.Do(func() { close(release) }) // before Close, which waits for the dial

	// The first call lands on lane 0 and parks in its dial.
	first := make(chan error, 1)
	go func() {
		_, err := p.Stats()
		first <- err
	}()
	<-parked

	promptly := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked behind lane 0's dial", what)
		}
	}
	promptly("BreakerState", func() { p.BreakerState() })
	promptly("ResilienceStats", func() { p.ResilienceStats() })
	promptly("a call on lane 1", func() {
		if _, err := p.Stats(); err != nil {
			t.Errorf("call on lane 1: %v", err)
		}
	})

	unpark.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("parked call after release: %v", err)
	}
}

// TestPoolBreakerTripsAtItsThreshold: the breaker is the server's, not a
// lane's. However many lanes a pool has, a dead server opens it after
// exactly BreakerThreshold failed attempts, counts one open and tells
// OnStateChange once; after a restart and the cooldown one call closes
// it again, and the hook hears that too.
func TestPoolBreakerTripsAtItsThreshold(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lanes=%d", size), func(t *testing.T) {
			rs := newRestartableServer(t)
			_, snap := makeSnapshot(t, 4*units.MiB, 5, 16)
			var mu sync.Mutex
			var hook []string
			cfg := fastResilient()
			cfg.OnStateChange = func(from, to BreakerState) {
				mu.Lock()
				hook = append(hook, fmt.Sprintf("%v->%v", from, to))
				mu.Unlock()
			}
			heard := func() string {
				mu.Lock()
				defer mu.Unlock()
				return strings.Join(hook, " ")
			}
			p, err := DialPool(rs.addr, testSecret, PoolConfig{Size: size, Resilience: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.PutImage(9, 4*units.MiB, snap); err != nil {
				t.Fatal(err)
			}

			rs.kill()
			for calls := 0; p.BreakerState() != BreakerOpen; calls++ {
				if calls == 4*cfg.BreakerThreshold {
					t.Fatalf("pool still %v after %d calls: %+v", p.BreakerState(), calls, p.ResilienceStats())
				}
				if _, err := p.GetPage(9, 1); err == nil {
					t.Fatal("GetPage succeeded against a dead server")
				}
			}
			st := p.ResilienceStats()
			if st.Failures != int64(cfg.BreakerThreshold) || st.BreakerOpens != 1 {
				t.Fatalf("opened after %d failed attempts with %d opens, want %d and 1",
					st.Failures, st.BreakerOpens, cfg.BreakerThreshold)
			}
			if got := heard(); got != "closed->open" {
				t.Fatalf("OnStateChange heard %q, want one closed->open", got)
			}

			if err := rs.restart(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
			if _, err := p.GetPage(9, 1); err != nil {
				t.Fatalf("GetPage after the restart and the cooldown: %v", err)
			}
			if st := p.BreakerState(); st != BreakerClosed {
				t.Fatalf("breaker %v after one good call, want closed", st)
			}
			if got, want := heard(), "closed->open open->half-open half-open->closed"; got != want {
				t.Fatalf("OnStateChange heard %q, want %q", got, want)
			}
		})
	}
}

// TestPoolConcurrentClients hammers one pool from many goroutines against
// a live server; run under -race this checks the dispatch accounting and
// per-lane serialization hold up.
func TestPoolConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	src, snap := makeSnapshot(t, 8*units.MiB, 21, 64)
	p, err := DialPool(addr, testSecret, PoolConfig{Size: 4, Resilience: fastResilient()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.PutImage(3, 8*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pfn := pagestore.PFN((w*20 + i) % 64)
				want, _ := src.Read(pfn)
				var got []byte
				var err error
				if i%4 == 0 {
					pages, perr := p.GetPages(3, []pagestore.PFN{pfn})
					got, err = pages[pfn], perr
				} else {
					got, err = p.GetPage(3, pfn)
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d: pfn %d mismatch", w, pfn)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	p.mu.Lock()
	for i, n := range p.inflight {
		if n != 0 {
			t.Errorf("lane %d inflight = %d after quiesce", i, n)
		}
	}
	p.mu.Unlock()
}
