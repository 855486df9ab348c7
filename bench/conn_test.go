package main

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestStatConnCountsAndTimes drives the wrapper over a pipe with known
// byte counts: a 100-byte request in two writes, a pause standing for the
// server's work, a 40-byte reply.
func TestStatConnCountsAndTimes(t *testing.T) {
	client, raw := net.Pipe()
	defer client.Close()
	var stats connStats
	srv := stats.wrap(raw)
	defer srv.Close()

	const work = 20 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 100)
		if _, err := io.ReadFull(srv, buf); err != nil {
			done <- err
			return
		}
		time.Sleep(work)
		_, err := srv.Write(make([]byte, 40))
		done <- err
	}()

	for _, n := range []int{60, 40} {
		if _, err := client.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := io.ReadFull(client, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if in, out := stats.bytesIn.Load(), stats.bytesOut.Load(); in != 100 || out != 40 {
		t.Errorf("counted %d in, %d out; want 100, 40", in, out)
	}
	if busy := time.Duration(stats.busyNs.Load()); busy < work || busy > 10*work {
		t.Errorf("busy time %v, want about %v", busy, work)
	}
}

// TestStatConnBusyCountsOnlyAnsweredRequests: a second write with no read
// before it belongs to the same reply and adds no busy time.
func TestStatConnBusyCountsOnlyAnsweredRequests(t *testing.T) {
	client, raw := net.Pipe()
	defer client.Close()
	var stats connStats
	srv := stats.wrap(raw)
	defer srv.Close()
	go io.Copy(io.Discard, client)

	if _, err := srv.Write([]byte("unsolicited")); err != nil {
		t.Fatal(err)
	}
	if busy := stats.busyNs.Load(); busy != 0 {
		t.Errorf("busy %d ns with no request read", busy)
	}
}
