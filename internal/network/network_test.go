package network_test

import (
	"crypto/tls"
	"io"
	"testing"
	"time"

	"oasis/internal/memserver"
	"oasis/internal/network"
)

// TestTLSRoundTrip: bytes cross a TLS network both ways, the client
// verifying the server by the name in the address it dialed.
func TestTLSRoundTrip(t *testing.T) {
	cert, roots, err := memserver.GenerateCert([]string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := network.TLS(network.TCP, cert, nil).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := network.TLS(network.TCP, tls.Certificate{}, roots).Dial(ln.Addr().String(), time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*tls.Conn); !ok {
		t.Fatalf("TLS dialed a %T", c)
	}
	if _, err := c.Write([]byte("page")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "page" {
		t.Fatalf("echo = %q, %v", got, err)
	}
}

// TestTLSHandshakeBoundedByDeadline: a peer that accepts and never
// answers the handshake fails a TLS dial at the dial's deadline.
func TestTLSHandshakeBoundedByDeadline(t *testing.T) {
	ln, err := network.TCP.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, silent, until the listener closes
		}
	}()
	start := time.Now()
	c, err := network.TLS(network.TCP, tls.Certificate{}, nil).Dial(ln.Addr().String(), start.Add(200*time.Millisecond))
	if err == nil {
		c.Close()
	}
	if took := time.Since(start); err == nil || took >= time.Second {
		t.Fatalf("TLS dial to a silent peer: %v after %v, want an error in under 1s", err, took)
	}
}
