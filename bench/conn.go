package main

import (
	"net"
	"sync/atomic"
	"time"
)

// connStats is what the server side of a set of connections saw: bytes in
// each direction and the time requests spent inside the server. One
// connStats is shared by every connection a server accepts.
type connStats struct {
	bytesIn  atomic.Int64 // read by the server (client -> server)
	bytesOut atomic.Int64 // written by the server (server -> client)
	// busyNs sums, per request, the time from the last request byte read
	// to the first reply byte written: the server's own work, without the
	// wire and without the client.
	busyNs atomic.Int64
}

// wrap is the function handed to MemServer.SetConnWrapper.
func (s *connStats) wrap(c net.Conn) net.Conn {
	return &statConn{Conn: c, stats: s}
}

// statConn counts and timestamps one server-side connection. The server
// reads and writes a connection from one goroutine; the atomics only make
// a concurrent reader of the totals safe.
type statConn struct {
	net.Conn
	stats *connStats
	// lastRead is when the most recent Read returned data, in Unix
	// nanoseconds, or 0 once a Write has answered it.
	lastRead atomic.Int64
}

func (c *statConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.stats.bytesIn.Add(int64(n))
		c.lastRead.Store(time.Now().UnixNano())
	}
	return n, err
}

func (c *statConn) Write(p []byte) (int, error) {
	if at := c.lastRead.Swap(0); at != 0 {
		c.stats.busyNs.Add(time.Now().UnixNano() - at)
	}
	n, err := c.Conn.Write(p)
	c.stats.bytesOut.Add(int64(n))
	return n, err
}
