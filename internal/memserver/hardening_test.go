package memserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/units"
)

// cutConn fails every Read once cut, after handing over at most three
// bytes of the frame being read: the rest of that reply stays in the
// socket, misaligned for whoever reads it next.
type cutConn struct {
	net.Conn
	cut *atomic.Bool
}

func (c cutConn) Read(p []byte) (int, error) {
	if !c.cut.Load() {
		return c.Conn.Read(p)
	}
	n, _ := c.Conn.Read(p[:min(len(p), 3)])
	return n, errors.New("cut mid-frame")
}

// TestBrokenConnPoisonsClient: after a transport error mid-frame the
// lane drops its socket, and the next call reconnects instead of
// reading the rest of the interrupted reply as its own.
func TestBrokenConnPoisonsClient(t *testing.T) {
	_, addr := startServer(t)
	var cut atomic.Bool
	dials := 0
	c, err := dialLane(netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		conn, err := network.TCP.Dial(addr, deadline)
		if dials++; dials == 1 && err == nil {
			conn = cutConn{conn, &cut}
		}
		return conn, err
	}), addr, testSecret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src, snap := makeSnapshot(t, 4*units.MiB, 2, 8)
	if err := c.PutImage(5, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}

	cut.Store(true)
	if _, err := c.GetPage(5, 1); err == nil {
		t.Fatal("GetPage succeeded over a connection cut mid-frame")
	}
	got, err := c.GetPage(5, 2)
	if err != nil {
		t.Fatalf("GetPage after the cut: %v", err)
	}
	if want, _ := src.Read(2); !bytes.Equal(got, want) {
		t.Fatal("GetPage after the cut read another reply's bytes")
	}
	if st := c.ResilienceStats(); st.Reconnects != 1 || st.Failures != 1 || dials != 2 {
		t.Fatalf("after one cut: %+v over %d dials, want one failure, one reconnect, two dials", st, dials)
	}
}

// TestRemoteErrorKeepsConnHealthy: a server-side refusal is not a
// transport fault, so it costs neither a failure nor a reconnect.
func TestRemoteErrorKeepsConnHealthy(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.GetPage(12345, 0); !IsRemoteError(err) {
		t.Fatalf("GetPage of unknown VM: %v, want a remote error", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("Stats after remote error: %v", err)
	}
	if st := c.ResilienceStats(); st.Failures != 0 || st.Reconnects != 0 || st.Retries != 0 {
		t.Fatalf("a remote error cost the lane %+v", st)
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
	c, err := dialLane(network.TCP, addr.String(), testSecret, time.Second)
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

// TestDialHandshakeBoundedByTimeout: a server that accepts and never
// sends its challenge fails a pool's eager first dial within the dial's
// timeout. The handshake used to wait out DefaultOpTimeout (30 s)
// whatever the timeout.
func TestDialHandshakeBoundedByTimeout(t *testing.T) {
	silent := netFunc(func(string, time.Time) (net.Conn, error) {
		conn, peer := net.Pipe()
		t.Cleanup(func() { peer.Close() })
		return conn, nil
	})
	const timeout = 200 * time.Millisecond
	start := time.Now()
	_, err := DialPool("silent", []byte("k"), PoolConfig{Size: 1, Resilience: ResilientConfig{
		MaxRetries: 1, DialTimeout: timeout, OpTimeout: time.Second, Network: silent,
	}})
	if took := time.Since(start); err == nil || took >= time.Second {
		t.Errorf("DialPool against a silent server: %v after %v, want an error in under 1s", err, took)
	}
}
