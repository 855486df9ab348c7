package memserver

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Framing over buffered reads. Each end reads its socket through one
// buffered reader, so a read may bring more than the frame it was for, or
// less. These tests hold the framing to the bytes on the wire whichever
// way they are cut.

// halfConn, once cut, hands over half of what its next read brings, then
// fails: the connection dies with part of a reply in the reader's buffer.
type halfConn struct {
	net.Conn
	cut  *atomic.Bool
	dead bool
}

func (c *halfConn) Read(p []byte) (int, error) {
	if !c.cut.Load() {
		return c.Conn.Read(p)
	}
	if c.dead {
		return 0, errors.New("connection lost")
	}
	c.dead = true
	n, err := c.Conn.Read(p)
	return n / 2, err
}

// storeImage installs a snapshot of pages pages as vmid's image and
// returns the image it was encoded from.
func storeImage(t *testing.T, s *Server, vmid pagestore.VMID, pages int) *pagestore.Image {
	t.Helper()
	src, snap := makeSnapshot(t, 4*units.MiB, uint64(vmid), pages)
	if err := s.InstallImage(vmid, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	return src
}

// samePage fails t unless got is src's page pfn.
func samePage(t *testing.T, src *pagestore.Image, pfn pagestore.PFN, got []byte) {
	t.Helper()
	if want, _ := src.Read(pfn); !bytes.Equal(got, want) {
		t.Fatalf("page %d differs from the source", pfn)
	}
}

// TestRedialReadsNoBufferedBytes: a lane whose socket dies with part of
// a reply in its reader redials with a reader of its own, and the next
// call reads its own reply, not the rest of the lost one.
func TestRedialReadsNoBufferedBytes(t *testing.T) {
	s, addr := startServer(t)
	src := storeImage(t, s, 7, 16)
	var cut atomic.Bool
	dials := 0
	c, err := dialLane(netFunc(func(addr string, deadline time.Time) (net.Conn, error) {
		conn, err := network.TCP.Dial(addr, deadline)
		if dials++; dials == 1 && err == nil {
			conn = &halfConn{Conn: conn, cut: &cut}
		}
		return conn, err
	}), addr, testSecret, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := c.lanes[0]
	first := l.r

	cut.Store(true)
	if _, err := c.GetPage(7, 3); err == nil {
		t.Fatal("GetPage succeeded over a connection that died mid-reply")
	}
	if l.r != nil {
		t.Fatal("the lane kept the dead socket's reader")
	}
	for _, pfn := range []pagestore.PFN{4, 5} {
		got, err := c.GetPage(7, pfn)
		if err != nil {
			t.Fatalf("GetPage after the redial: %v", err)
		}
		samePage(t, src, pfn, got)
	}
	if l.r == first || l.r == nil {
		t.Fatal("the redialed socket does not read through a reader of its own")
	}
	if st := c.ResilienceStats(); st.Reconnects != 1 || st.Failures != 1 || dials != 2 {
		t.Fatalf("after one lost socket: %+v over %d dials, want one failure, one reconnect, two dials", st, dials)
	}
}

// getPageFrame is a whole GetPage request frame.
func getPageFrame(vmid pagestore.VMID, pfn pagestore.PFN) []byte {
	f := binary.BigEndian.AppendUint32(nil, 12)
	f = append(f, msgGetPage)
	f = binary.BigEndian.AppendUint32(f, uint32(vmid))
	return binary.BigEndian.AppendUint64(f, uint64(pfn))
}

// readPage reads one msgPage reply from conn and decodes it.
func readPage(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	typ, payload, err := readFrame(conn)
	if err != nil || typ != msgPage || len(payload) < 2 {
		t.Fatalf("page reply: type %d, %d bytes, %v", typ, len(payload), err)
	}
	page, err := pagestore.DecodePage(binary.BigEndian.Uint16(payload), payload[2:])
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// TestServerAnswersRequestsSharingASegment: frames that reach the server
// in one write, and so in one read of its socket, are each answered, in
// the order sent — an auth frame with the request behind it, and two
// requests.
func TestServerAnswersRequestsSharingASegment(t *testing.T) {
	s, addr := startServer(t)
	src := storeImage(t, s, 8, 16)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	typ, nonce, err := readFrame(conn)
	if err != nil || typ != msgChallenge {
		t.Fatalf("challenge: type %d, %v", typ, err)
	}
	h := hmac.New(sha256.New, testSecret)
	h.Write(nonce)
	var auth bytes.Buffer
	writeFrame(&auth, msgAuth, h.Sum(nil))
	if _, err := conn.Write(append(auth.Bytes(), getPageFrame(8, 1)...)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn); err != nil || typ != msgOK {
		t.Fatalf("auth reply: type %d, %v", typ, err)
	}
	samePage(t, src, 1, readPage(t, conn))

	if _, err := conn.Write(append(getPageFrame(8, 2), getPageFrame(8, 3)...)); err != nil {
		t.Fatal(err)
	}
	samePage(t, src, 2, readPage(t, conn))
	samePage(t, src, 3, readPage(t, conn))
}

// trickle copies src to dst one byte per write.
func trickle(dst io.Writer, src io.Reader) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		for i := 0; i < n; i++ {
			if _, err := dst.Write(buf[i : i+1]); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// startTrickleRelay relays one client to addr, every byte in each
// direction in a write of its own, and returns the address to dial.
func startTrickleRelay(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		in, err := ln.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer out.Close()
		go trickle(out, in)
		trickle(in, out)
	}()
	return ln.Addr().String()
}

// TestFramesTrickledOneByteAWrite: every frame, both ways, arriving a
// byte at a time still parses — the handshake, a page and a batch of
// pages at the lane's end, their requests at the server's.
func TestFramesTrickledOneByteAWrite(t *testing.T) {
	s, addr := startServer(t)
	src := storeImage(t, s, 9, 8)
	c, err := dialLane(network.TCP, startTrickleRelay(t, addr), testSecret, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.GetPage(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	samePage(t, src, 1, got)
	pages, err := c.GetPages(9, []pagestore.PFN{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for pfn, page := range pages {
		samePage(t, src, pfn, page)
	}
	if len(pages) != 2 {
		t.Fatalf("GetPages returned %d pages, want 2", len(pages))
	}
	if st, err := c.Stats(); err != nil || st.VMs != 1 {
		t.Fatalf("Stats: %+v, %v", st, err)
	}
}

// TestRearmBounds pins when a deadline moves: never armed, or stale by
// more than 1/rearmSlack of its timeout, and not otherwise. An armed
// deadline is never later than now+timeout, so no op waits past its
// timeout, and never earlier than now+timeout less the slack.
func TestRearmBounds(t *testing.T) {
	const timeout = 30 * time.Second
	now := time.Now()
	slack := timeout / rearmSlack
	for _, c := range []struct {
		armed time.Time
		want  bool
	}{
		{time.Time{}, true},
		{now.Add(-time.Second), true},
		{now.Add(timeout - slack - time.Nanosecond), true},
		{now.Add(timeout - slack), false},
		{now.Add(timeout), false},
	} {
		if got := rearm(c.armed, now, timeout); got != c.want {
			t.Errorf("armed %v before now+timeout: rearm %v, want %v", now.Add(timeout).Sub(c.armed), got, c.want)
		}
	}
}

// TestDeadlinesMoveWithTraffic: a lane's op deadline and the server's
// idle deadline follow the traffic. Calls spread over several op
// timeouts each get a whole one, and a connection that talks more often
// than the idle timeout is never dropped as idle.
func TestDeadlinesMoveWithTraffic(t *testing.T) {
	s := NewServer(testSecret, t.Logf)
	s.SetIdleTimeout(150 * time.Millisecond)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialPool(addr.String(), testSecret, PoolConfig{Size: 1, Resilience: ResilientConfig{
		MaxRetries: 1, OpTimeout: 100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		time.Sleep(60 * time.Millisecond)
		if _, err := c.Stats(); err != nil {
			t.Fatalf("call %d, %v after the first: %v", i, time.Duration(i+1)*60*time.Millisecond, err)
		}
	}
	if st := c.ResilienceStats(); st.Failures != 0 || st.Reconnects != 0 {
		t.Fatalf("traffic every 60 ms under a 100 ms op and a 150 ms idle timeout cost %+v", st)
	}
}
