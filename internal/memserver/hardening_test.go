package memserver

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/units"
)

// TestBrokenConnPoisonsClient verifies the satellite fix: after any
// transport error the client refuses further use with ErrClientBroken
// instead of reading misaligned frames from a half-written stream.
func TestBrokenConnPoisonsClient(t *testing.T) {
	s, addr := startServer(t)
	c := dial(t, addr)
	_, snap := makeSnapshot(t, 4*units.MiB, 2, 8)
	if err := c.PutImage(5, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	// Kill the server mid-session; the in-flight op fails with a
	// transport error...
	s.Close()
	if _, err := c.GetPage(5, 1); err == nil {
		t.Fatal("GetPage succeeded against a closed server")
	}
	// ...and every subsequent op reports the poisoned connection.
	if _, err := c.GetPage(5, 2); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("want ErrClientBroken, got %v", err)
	}
	if _, err := c.Stats(); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("want ErrClientBroken from Stats, got %v", err)
	}
	if !c.Broken() {
		t.Fatal("Broken() = false after transport error")
	}
}

// TestRemoteErrorKeepsConnHealthy: a server-side refusal is not a
// transport fault and must not poison the connection.
func TestRemoteErrorKeepsConnHealthy(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.GetPage(12345, 0); err == nil {
		t.Fatal("GetPage of unknown VM succeeded")
	}
	if c.Broken() {
		t.Fatal("remote error poisoned the connection")
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after remote error: %v", err)
	}
}

// TestServerIdleTimeout verifies the satellite fix: a silent client is
// dropped after the idle deadline instead of pinning a goroutine
// forever.
func TestServerIdleTimeout(t *testing.T) {
	s := NewServer(testSecret, t.Logf)
	s.SetIdleTimeout(100 * time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// A fully authenticated client that goes silent...
	c, err := Dial(network.TCP, addr.String(), testSecret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// ...observes the server closing the connection: the next op fails
	// even though the server is still up and serving new connections.
	time.Sleep(300 * time.Millisecond)
	if _, err := c.Stats(); err == nil {
		t.Fatal("idle connection survived past the idle timeout")
	}
	c2 := dial(t, addr.String())
	if _, err := c2.Stats(); err != nil {
		t.Fatalf("fresh connection after idle drop: %v", err)
	}
}

// TestIdleTimeoutAppliesToUnauthenticatedConns: a TCP connection that
// never even authenticates is also bounded.
func TestIdleTimeoutAppliesToUnauthenticatedConns(t *testing.T) {
	s := NewServer(testSecret, t.Logf)
	s.SetIdleTimeout(100 * time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Read the challenge, then stall without answering. The server must
	// hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(conn); err != nil {
		t.Fatalf("reading challenge: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err == nil {
		t.Fatal("server kept a stalled unauthenticated connection open")
	}
}

// silentListener accepts connections and never writes to them, as a
// server wedged before its challenge would. Cleanup closes it and every
// connection it accepted.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	closed := false
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if conns = append(conns, c); closed {
				c.Close()
			}
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestDialHandshakeBoundedByTimeout: a server that accepts and never
// sends its challenge fails a dial within the dial's timeout, for a bare
// client and for a pool's eager first lane. The handshake used to wait
// out DefaultOpTimeout (30 s) whatever the timeout.
func TestDialHandshakeBoundedByTimeout(t *testing.T) {
	addr := silentListener(t)
	const timeout = 200 * time.Millisecond
	for name, dial := range map[string]func() error{
		"Dial": func() error {
			_, err := Dial(network.TCP, addr, []byte("k"), timeout)
			return err
		},
		"DialPool": func() error {
			_, err := DialPool(addr, []byte("k"), PoolConfig{Size: 1, Resilience: ResilientConfig{
				MaxRetries: 1, DialTimeout: timeout, OpTimeout: time.Second,
			}})
			return err
		},
	} {
		start := time.Now()
		err := dial()
		if took := time.Since(start); err == nil || took >= time.Second {
			t.Errorf("%s against a silent server: %v after %v, want an error in under 1s", name, err, took)
		}
	}
}
