package memserver

import (
	"bytes"
	"io"
	"net"
	"testing"

	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// The demand-fault floor. A fault costs one GetPage round trip: a 17-byte
// request frame and a reply of at most a page and its 7-byte frame head.
// BenchmarkLoopbackFloor times the same exchange as a bare TCP
// ping-pong with no Oasis code in it, and BenchmarkGetPageRoundTrip the
// real one, lane to server; the difference is what the protocol, the
// client and the server cost above the kernel. `make bench-fault` runs
// both.

// BenchmarkLoopbackFloor is a 16-byte request and a 4 KiB reply over one
// loopback TCP connection, each side reading with io.ReadFull and
// writing with one Write.
func BenchmarkLoopbackFloor(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req := make([]byte, 16)
		reply := make([]byte, units.PageSize)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	req := make([]byte, 16)
	reply := make([]byte, units.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetPageRoundTrip is one GetPage of a compressible page over a
// one-lane pool to an in-process server: framing, deadline, breaker
// bookkeeping, the server's lookup and copy of the stored entry, and the
// client's decode.
func BenchmarkGetPageRoundTrip(b *testing.B) {
	s := NewServer(testSecret, nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	page := testPage(7)
	im := pagestore.NewImage(units.MiB)
	if err := im.Write(3, page); err != nil {
		b.Fatal(err)
	}
	// Installed from a snapshot, as an upload would: the server serves
	// the entry as stored and compresses nothing per request.
	snap, _, err := pagestore.EncodeAll(im)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.InstallImage(1, units.MiB, snap); err != nil {
		b.Fatal(err)
	}
	c, err := dialLane(network.TCP, addr.String(), testSecret, DefaultDialTimeout)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	got, err := c.GetPage(1, 3)
	if err != nil || !bytes.Equal(got, page) {
		b.Fatalf("GetPage: %v (page equal: %v)", err, bytes.Equal(got, page))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := c.GetPage(1, 3); err != nil {
			b.Fatal(err)
		}
	}
}
