// Package faultinject provides a deterministic, seedable fault injector
// for the memory-server data path. It wraps net.Conn (and whole
// networks, their dials and their listeners) and injects the failure
// modes a remote-memory system must survive: dial failures, mid-frame
// connection resets, read/write stalls, and latency spikes. The same
// injector drives unit tests, the memserverd chaos flags, and the
// fault-matrix end-to-end tests; because every decision comes from a
// seeded PRNG, a failing fault schedule is exactly reproducible from its
// seed.
//
// The injector deliberately models faults at the transport layer — the
// layer the paper's memtap/memory-server split actually crosses — so the
// resilience code in internal/memserver is exercised through the same
// code paths production traffic takes.
//
// # Chaos spec grammar
//
// ParseSpec accepts the compact syntax the memserverd -chaos flag uses:
// a comma-separated list of key=value clauses, each enabling one fault
// mode. Probabilities are floats in [0,1]; durations use Go syntax
// (5ms, 2s). Omitted keys stay disabled.
//
//	spec    = clause *("," clause)
//	clause  = "dial"    "=" prob          dial attempts fail outright
//	        | "read"    "=" prob          Read fails with connection reset
//	        | "write"   "=" prob          Write fails with connection reset
//	        | "partial" "=" prob          Write tears mid-frame, then resets
//	        | "latency" "=" dur ":" prob  op is delayed by dur first
//	        | "stall"   "=" dur ":" prob  op blocks for dur, then resets
//
// Example: "read=0.05,write=0.02,latency=5ms:0.2" makes 5% of reads and
// 2% of writes fail, and delays 20% of operations by 5 ms. See
// ExampleParseSpec for the round trip and ExampleInjector for wiring an
// injector into a connection.
package faultinject

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"oasis/internal/network"
	"oasis/internal/rng"
)

// ErrInjected marks an injected transport failure; wrapped errors satisfy
// errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// Config sets per-operation fault probabilities and magnitudes. All
// probabilities are in [0,1]; zero values disable the corresponding
// fault.
type Config struct {
	// DialFail is the probability a dial attempt fails outright.
	DialFail float64
	// ReadErr / WriteErr are the probabilities that a Read/Write call
	// fails with a connection reset (the conn is closed, so the peer
	// observes the reset too).
	ReadErr  float64
	WriteErr float64
	// PartialWrite is the probability that a Write transmits only a
	// prefix of its buffer before resetting — the mid-frame tear that
	// leaves length-prefixed framing misaligned on the peer.
	PartialWrite float64
	// Latency, with probability LatencyProb, delays an operation before
	// performing it (a latency spike, not a failure).
	Latency     time.Duration
	LatencyProb float64
	// Stall, with probability StallProb, blocks an operation for the
	// full stall duration and then resets the connection — a half-open
	// peer that eventually dies.
	Stall     time.Duration
	StallProb float64
}

// enabled reports whether any fault can fire.
func (c Config) enabled() bool {
	return c.DialFail > 0 || c.ReadErr > 0 || c.WriteErr > 0 ||
		c.PartialWrite > 0 || c.LatencyProb > 0 || c.StallProb > 0
}

// ParseSpec parses a compact flag syntax into a Config:
//
//	dial=0.1,read=0.05,write=0.05,partial=0.02,latency=5ms:0.2,stall=200ms:0.01
//
// Each clause is key=value; latency and stall take duration:probability.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: clause %q is not key=value", clause)
		}
		prob := func(s string) (float64, error) {
			p, err := strconv.ParseFloat(s, 64)
			if err != nil || p < 0 || p > 1 {
				return 0, fmt.Errorf("faultinject: %s probability %q not in [0,1]", k, s)
			}
			return p, nil
		}
		var err error
		switch k {
		case "dial":
			cfg.DialFail, err = prob(v)
		case "read":
			cfg.ReadErr, err = prob(v)
		case "write":
			cfg.WriteErr, err = prob(v)
		case "partial":
			cfg.PartialWrite, err = prob(v)
		case "latency", "stall":
			ds, ps, ok := strings.Cut(v, ":")
			if !ok {
				return cfg, fmt.Errorf("faultinject: %s wants duration:probability, got %q", k, v)
			}
			var d time.Duration
			if d, err = time.ParseDuration(ds); err != nil {
				return cfg, fmt.Errorf("faultinject: %s duration %q: %v", k, ds, err)
			}
			var p float64
			if p, err = prob(ps); err != nil {
				return cfg, err
			}
			if k == "latency" {
				cfg.Latency, cfg.LatencyProb = d, p
			} else {
				cfg.Stall, cfg.StallProb = d, p
			}
		default:
			return cfg, fmt.Errorf("faultinject: unknown fault kind %q", k)
		}
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Injector makes seeded fault decisions and wraps transport objects. It
// is safe for concurrent use; concurrency does perturb which operation
// receives which decision, so fully deterministic schedules require
// serialised traffic (as the request/response page protocol provides).
type Injector struct {
	mu      sync.Mutex
	cfg     Config
	rand    *rng.Rand
	enabled bool
	counts  map[string]int64

	// sleep is replaceable by tests that want virtual time.
	sleep func(time.Duration)
}

// New creates an injector with the given seed and config, initially
// enabled.
func New(seed uint64, cfg Config) *Injector {
	return &Injector{
		cfg:     cfg,
		rand:    rng.New(seed),
		enabled: cfg.enabled(),
		counts:  make(map[string]int64),
		sleep:   time.Sleep,
	}
}

// SetEnabled arms or disarms the injector; disarmed wrappers pass all
// traffic through untouched.
func (in *Injector) SetEnabled(on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.enabled = on && in.cfg.enabled()
}

// Counts returns a snapshot of how many faults of each kind fired.
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

func (in *Injector) note(kind string) {
	in.counts[kind]++
}

// decision is what a single operation should do.
type decision struct {
	delay   time.Duration // sleep first (latency spike or stall)
	fail    bool          // then fail, resetting the connection
	partial bool          // for writes: transmit a prefix before failing
}

// decide rolls one operation's fate. kind is "dial", "read" or "write".
func (in *Injector) decide(kind string) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d decision
	if !in.enabled {
		return d
	}
	switch kind {
	case "dial":
		if in.rand.Bool(in.cfg.DialFail) {
			in.note("dial-fail")
			d.fail = true
		}
		return d
	case "read", "write":
		if in.cfg.StallProb > 0 && in.rand.Bool(in.cfg.StallProb) {
			in.note(kind + "-stall")
			d.delay = in.cfg.Stall
			d.fail = true
			return d
		}
		if in.cfg.LatencyProb > 0 && in.rand.Bool(in.cfg.LatencyProb) {
			in.note(kind + "-latency")
			d.delay = in.cfg.Latency
		}
		p := in.cfg.ReadErr
		if kind == "write" {
			p = in.cfg.WriteErr
			if in.cfg.PartialWrite > 0 && in.rand.Bool(in.cfg.PartialWrite) {
				in.note("partial-write")
				d.fail = true
				d.partial = true
				return d
			}
		}
		if in.rand.Bool(p) {
			in.note(kind + "-err")
			d.fail = true
		}
		return d
	}
	return d
}

// Network returns inner with this injector's faults on it: each dial
// may fail outright (DialFail), and every connection it dials or accepts
// is wrapped as WrapConn wraps one.
func (in *Injector) Network(inner network.Network) network.Network {
	return faultNetwork{inner: inner, in: in}
}

type faultNetwork struct {
	inner network.Network
	in    *Injector
}

func (n faultNetwork) Dial(addr string, deadline time.Time) (net.Conn, error) {
	if d := n.in.decide("dial"); d.fail {
		return nil, fmt.Errorf("%w: dial refused", ErrInjected)
	}
	conn, err := n.inner.Dial(addr, deadline)
	if err != nil {
		return nil, err
	}
	return n.in.WrapConn(conn), nil
}

func (n faultNetwork) Listen(addr string) (net.Listener, error) {
	ln, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return faultListener{Listener: ln, in: n.in}, nil
}

// faultListener wraps every connection its inner listener accepts.
type faultListener struct {
	net.Listener
	in *Injector
}

func (l faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(conn), nil
}

// WrapConn returns conn with fault injection on Read and Write. Injected
// failures close the underlying connection, so the peer observes a reset
// just as it would for a crashed process.
func (in *Injector) WrapConn(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, in: in}
}

// faultConn injects faults around an inner net.Conn.
type faultConn struct {
	net.Conn
	in *Injector
}

func (c *faultConn) Read(p []byte) (int, error) {
	d := c.in.decide("read")
	if d.delay > 0 {
		c.in.sleep(d.delay)
	}
	if d.fail {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: read reset", ErrInjected)
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	d := c.in.decide("write")
	if d.delay > 0 {
		c.in.sleep(d.delay)
	}
	if d.fail {
		n := 0
		if d.partial && len(p) > 1 {
			// Tear the frame: push a prefix so the peer's framing
			// misaligns, then reset.
			n, _ = c.Conn.Write(p[:len(p)/2])
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: write reset", ErrInjected)
	}
	return c.Conn.Write(p)
}

// CrashLoop alternates crash and restart on a fixed schedule until stop
// is closed: every period it calls crash, waits downtime, then calls
// restart. memserverd uses it to exercise client reconnect logic against
// a genuinely restarting daemon; tests drive crash/restart directly for
// tighter control.
func CrashLoop(stop <-chan struct{}, period, downtime time.Duration, crash, restart func()) {
	if period <= 0 {
		return
	}
	t := time.NewTimer(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			crash()
			select {
			case <-stop:
				return
			case <-time.After(downtime):
			}
			restart()
			t.Reset(period)
		}
	}
}
