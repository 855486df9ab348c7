package faultinject

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"oasis/internal/network"
)

// pipePair returns a connected conn pair, the client side wrapped.
func pipePair(in *Injector) (wrapped, peer net.Conn) {
	a, b := net.Pipe()
	return in.WrapConn(a), b
}

func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{ReadErr: 0.3, WriteErr: 0.2, PartialWrite: 0.1}
	seqFor := func(seed uint64) []decision {
		in := New(seed, cfg)
		var out []decision
		for i := 0; i < 200; i++ {
			kind := "read"
			if i%2 == 0 {
				kind = "write"
			}
			out = append(out, in.decide(kind))
		}
		return out
	}
	a, b := seqFor(7), seqFor(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across same-seed injectors: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := seqFor(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-decision schedules")
	}
}

func TestReadErrorClosesConn(t *testing.T) {
	in := New(1, Config{ReadErr: 1})
	wrapped, peer := pipePair(in)
	defer peer.Close()
	_, err := wrapped.Read(make([]byte, 4))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The underlying conn is closed: the peer observes EOF.
	peer.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := peer.Read(make([]byte, 4)); err == nil {
		t.Fatal("peer read succeeded after injected reset")
	}
	if got := in.Counts()["read-err"]; got != 1 {
		t.Fatalf("read-err count = %d, want 1", got)
	}
}

func TestPartialWriteTearsFrame(t *testing.T) {
	in := New(1, Config{WriteErr: 1, PartialWrite: 1})
	wrapped, peer := pipePair(in)
	defer peer.Close()

	frame := []byte("0123456789abcdef")
	got := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(peer)
		got <- buf
	}()
	n, err := wrapped.Write(frame)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n == 0 || n >= len(frame) {
		t.Fatalf("partial write pushed %d of %d bytes; want a strict prefix", n, len(frame))
	}
	if buf := <-got; len(buf) != n {
		t.Fatalf("peer received %d bytes, writer reported %d", len(buf), n)
	}
}

func TestLatencyInjection(t *testing.T) {
	in := New(1, Config{Latency: 10 * time.Millisecond, LatencyProb: 1})
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept += d }
	wrapped, peer := pipePair(in)
	defer peer.Close()
	go peer.Write([]byte("xx"))
	if _, err := wrapped.Read(make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if slept != 10*time.Millisecond {
		t.Fatalf("slept %v, want 10ms", slept)
	}
}

// unreachable is a network no dial may reach.
type unreachable struct{ t *testing.T }

func (u unreachable) Dial(string, time.Time) (net.Conn, error) {
	u.t.Fatal("inner dial reached despite DialFail=1")
	return nil, nil
}

func (u unreachable) Listen(string) (net.Listener, error) { return nil, errors.New("unreachable") }

func TestDialFailure(t *testing.T) {
	in := New(1, Config{DialFail: 1})
	_, err := in.Network(unreachable{t}).Dial("127.0.0.1:1", time.Time{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

// TestNetworkWrapsAcceptedConns: a listener from Network injects faults
// into every connection it accepts, as SetConnWrapper's WrapConn does.
func TestNetworkWrapsAcceptedConns(t *testing.T) {
	in := New(1, Config{ReadErr: 1})
	ln, err := in.Network(network.TCP).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := network.TCP.Dial(ln.Addr().String(), time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read on an accepted conn: %v, want ErrInjected", err)
	}
}

func TestDisabledInjectorPassesThrough(t *testing.T) {
	in := New(1, Config{ReadErr: 1, WriteErr: 1})
	in.SetEnabled(false)
	wrapped, peer := pipePair(in)
	defer peer.Close()
	go peer.Write([]byte("ok"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(wrapped, buf); err != nil {
		t.Fatalf("disabled injector still injected: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("dial=0.1,read=0.05,write=0.05,partial=0.02,latency=5ms:0.2,stall=200ms:0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		DialFail: 0.1, ReadErr: 0.05, WriteErr: 0.05, PartialWrite: 0.02,
		Latency: 5 * time.Millisecond, LatencyProb: 0.2,
		Stall: 200 * time.Millisecond, StallProb: 0.01,
	}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if c, err := ParseSpec(""); err != nil || c.enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", c, err)
	}
	for _, bad := range []string{"read", "read=2", "latency=5ms", "latency=x:0.5", "bogus=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

func TestCrashLoop(t *testing.T) {
	stop := make(chan struct{})
	events := make(chan string, 16)
	go CrashLoop(stop, 5*time.Millisecond, time.Millisecond,
		func() { events <- "crash" },
		func() { events <- "restart" })
	want := []string{"crash", "restart", "crash", "restart"}
	for _, w := range want {
		select {
		case got := <-events:
			if got != w {
				t.Fatalf("event order: got %q want %q", got, w)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %q", w)
		}
	}
	close(stop)
}
