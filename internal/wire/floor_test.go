package wire

import (
	"bytes"
	"io"
	"net"
	"testing"

	"oasis/internal/units"
)

// The control-path floor. An agent's ReadPage is one call: a request frame
// carrying a page's address as params, and a reply carrying no result and
// the page as its payload. BenchmarkRPCFloor times an exchange of the same
// byte sizes as a bare TCP ping-pong with no wire code in it, and
// BenchmarkPageCall the real call, client to server; the difference is
// what the envelope, the JSON body and the framing cost above the kernel.
// `make bench-fault` runs both.

// pageArgs has the shape of the agent's PageArgs.
type pageArgs struct {
	VMID uint32 `json:"vmid"`
	PFN  uint64 `json:"pfn"`
}

var pageCallArgs = pageArgs{VMID: 7, PFN: 3}

// pageCallSizes returns the byte sizes of a page call's request and reply
// frames.
func pageCallSizes(tb testing.TB) (req, reply int) {
	var buf bytes.Buffer
	f := newFramer(&buf)
	if err := f.write(1, statusOK, "Agent.ReadPage", pageCallArgs, nil); err != nil {
		tb.Fatal(err)
	}
	req = buf.Len()
	if err := f.write(1, statusOK, "", nil, make([]byte, units.PageSize)); err != nil {
		tb.Fatal(err)
	}
	return req, buf.Len() - req
}

// pageCallClient starts a server whose Agent.ReadPage decodes a pageArgs
// and answers with a page it already holds, so that a call costs the wire
// and nothing else, and returns a client dialed to it.
func pageCallClient(tb testing.TB) *Client {
	s := NewServer(tb.Logf)
	page := make([]byte, units.PageSize)
	Handle(s, "Agent.ReadPage", func(args pageArgs, _ []byte) (any, []byte, error) {
		page[0] = byte(args.PFN)
		return nil, page, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	c, err := Dial(addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkRPCFloor is a page call's request and reply sizes over one
// loopback TCP connection, each side reading with io.ReadFull and writing
// with one Write.
func BenchmarkRPCFloor(b *testing.B) {
	reqSize, replySize := pageCallSizes(b)
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
		req, reply := make([]byte, reqSize), make([]byte, replySize)
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
	req, reply := make([]byte, reqSize), make([]byte, replySize)
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

var pageSink []byte

// BenchmarkPageCall is one ReadPage-shaped call, client to server in
// process.
func BenchmarkPageCall(b *testing.B) {
	c := pageCallClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		page, err := c.CallPayload("Agent.ReadPage", pageCallArgs, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		pageSink = page
	}
}
