package memserver

import (
	"bytes"
	"net"
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

// TestParkedDialDoesNotStallBreakerOrSiblings pins the lane's locking
// rule: a dial runs outside the lane's state mutex. One lane's redial of
// a black-holed server (here: a network whose Dial parks on a channel)
// must not keep anyone from reading the breaker — memtap's Degraded()
// sits on the agent's recovery path — nor, through a breaker callback
// that takes the pool's mutex and then the lane's, stall dispatch to the
// healthy lanes.
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
			t.Fatalf("%s blocked behind another lane's dial", what)
		}
	}
	promptly("lane BreakerState", func() { p.lanes[0].breakerState() })
	promptly("ResilienceStats", func() { p.ResilienceStats() })
	// A breaker callback for the dialing lane, delivered late (callbacks
	// run outside the lane's mutex, so they can be).
	promptly("laneStateChanged", func() { p.laneStateChanged(0) })
	promptly("a sibling lane's Stats", func() {
		if _, err := p.Stats(); err != nil {
			t.Errorf("sibling lane: %v", err)
		}
	})

	unpark.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("parked call after release: %v", err)
	}
}

// forceLaneState transitions a lane's real breaker and delivers its
// callback, the same path production transitions take.
func forceLaneState(p *ClientPool, lane int, s BreakerState) {
	l := p.lanes[lane]
	l.mu.Lock()
	cb := l.setStateLocked(s)
	l.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// TestPoolAvoidsOpenLanes checks that dispatch routes around a lane whose
// breaker is open while any healthy lane remains.
func TestPoolAvoidsOpenLanes(t *testing.T) {
	p := NewPool("", nil, PoolConfig{Size: 3, Resilience: ResilientConfig{Network: noDial}})
	forceLaneState(p, 1, BreakerOpen)
	for i := 0; i < 16; i++ {
		lane := p.acquire()
		if lane == 1 {
			t.Fatal("dispatched to a lane with an open breaker while healthy lanes exist")
		}
		p.release(lane)
	}
	// With every breaker open, dispatch must still hand out a lane so the
	// caller gets the fail-fast (or rides the half-open probe).
	forceLaneState(p, 0, BreakerOpen)
	forceLaneState(p, 2, BreakerOpen)
	lane := p.acquire()
	p.release(lane)
}

// TestPoolLaneStateResyncAfterReorderedCallbacks pins the fix for a
// breaker-cache desync: lane callbacks fire outside the lane's mutex, so
// two rapid transitions (e.g. a half-open probe succeeding right after
// the breaker opened) can be DELIVERED out of order. The pool must
// converge on the lane's real state, not the callback's argument —
// otherwise the cached aggregate sticks at "open" forever once the lane
// settles, and the shard rebalancer counts a healthy backend as down.
func TestPoolLaneStateResyncAfterReorderedCallbacks(t *testing.T) {
	p := NewPool("", nil, PoolConfig{Size: 1, Resilience: ResilientConfig{Network: noDial}})
	r := p.lanes[0]
	r.mu.Lock()
	cbOpen := r.setStateLocked(BreakerOpen)
	cbClosed := r.setStateLocked(BreakerClosed)
	r.mu.Unlock()
	// Deliver in reverse: the →closed callback lands first, the stale
	// →open one last. The cache must still settle on the lane's truth.
	cbClosed()
	cbOpen()
	if got := p.BreakerState(); got != BreakerClosed {
		t.Fatalf("aggregate breaker = %v after reordered callback delivery, want closed", got)
	}
}

// TestPoolAggregateBreaker proves the pool degrades only when every lane
// is down, and that pool-level OnStateChange fires on aggregate
// transitions — the contract memtap's degraded gauge depends on.
func TestPoolAggregateBreaker(t *testing.T) {
	rs := newRestartableServer(t)
	_, snap := makeSnapshot(t, 4*units.MiB, 5, 16)

	var transitions atomic.Int64
	var lastTo atomic.Int32
	cfg := fastResilient()
	cfg.MaxRetries = 2
	cfg.BreakerThreshold = 2
	cfg.OnStateChange = func(from, to BreakerState) {
		transitions.Add(1)
		lastTo.Store(int32(to))
	}
	p, err := DialPool(rs.addr, testSecret, PoolConfig{Size: 2, Resilience: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.PutImage(9, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	rs.kill()
	laneStates := func() (s []BreakerState) {
		for _, l := range p.lanes {
			s = append(s, l.breakerState())
		}
		return s
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.BreakerState() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("pool never opened; lane states %v", laneStates())
		}
		p.GetPage(9, 1) // errors expected; drive both lanes into failure
	}
	if BreakerState(lastTo.Load()) != BreakerOpen {
		t.Fatalf("aggregate OnStateChange last reported %v, want open", BreakerState(lastTo.Load()))
	}

	// One lane recovering must close the aggregate again.
	if err := rs.restart(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	for p.BreakerState() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("pool never closed after restart; lane states %v", laneStates())
		}
		p.GetPage(9, 1)
		time.Sleep(5 * time.Millisecond)
	}
	if transitions.Load() < 2 {
		t.Fatalf("saw %d aggregate transitions, want >= 2 (open then closed)", transitions.Load())
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
