package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

type echoArgs struct {
	Msg string `json:"msg"`
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer(t.Logf)
	Handle(s, "echo", func(a echoArgs, _ []byte) (any, []byte, error) {
		return a.Msg, nil, nil
	})
	Handle(s, "fail", func(struct{}, []byte) (any, []byte, error) {
		return nil, nil, errors.New("intentional failure")
	})
	Handle(s, "nilresult", func(struct{}, []byte) (any, []byte, error) {
		return nil, nil, nil
	})
	// mirror sends the request's payload back with its length as result.
	Handle(s, "mirror", func(_ struct{}, payload []byte) (any, []byte, error) {
		return len(payload), payload, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	if err := c.Call("echo", echoArgs{Msg: "hello"}, &out); err != nil {
		t.Fatal(err)
	}
	if out != "hello" {
		t.Fatalf("echo = %q", out)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Method != "fail" {
		t.Fatalf("method = %q", re.Method)
	}
	// The connection survives remote errors.
	var out string
	if err := c.Call("echo", echoArgs{Msg: "still alive"}, &out); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyErrorIsRemoteError: a handler error whose text is empty still
// fails the call; a failed call is marked by the reply's status, not read
// from its error text.
func TestEmptyErrorIsRemoteError(t *testing.T) {
	s, addr := startServer(t)
	Handle(s, "failempty", func(struct{}, []byte) (any, []byte, error) {
		return "result", []byte("reply"), errors.New("")
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	reply, err := c.CallPayload("failempty", nil, nil, &out)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "" || reply != nil || out != "" {
		t.Fatalf("handler error with empty text: reply %q, out %q, err %v", reply, out, err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nope", nil, nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestNilParamsAndResult(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nilresult", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			var out string
			if err := c.Call("echo", echoArgs{Msg: want}, &out); err != nil {
				errs <- err
				return
			}
			if out != want {
				errs <- fmt.Errorf("got %q want %q", out, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	for i := 0; i < 5; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		if err := c.Call("echo", echoArgs{Msg: "x"}, &out); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	if err := c.Call("echo", echoArgs{Msg: "x"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", echoArgs{Msg: "y"}, &out); err == nil {
		t.Fatal("call succeeded after server close")
	}
	// Closing twice is safe.
	s.Close()
}

// TestPayloadRoundTrip: bytes travel as bytes, both directions, beside a
// head that still carries params and result.
func TestPayloadRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{0, 1, 4096, 4 << 20} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*7 + n)
		}
		var gotLen int
		got, err := c.CallPayload("mirror", nil, want, &gotLen)
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if gotLen != n || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: server saw %d, reply %d bytes, equal=%v", n, gotLen, len(got), bytes.Equal(got, want))
		}
	}
	// A payload past the bound is refused before a byte is written, and
	// the client recovers on the next call.
	if _, err := c.CallPayload("mirror", nil, make([]byte, MaxPayload+1), nil); err == nil {
		t.Fatal("oversize payload sent")
	}
	if _, err := c.CallPayload("mirror", nil, []byte{1}, nil); err != nil {
		t.Fatalf("call after refused oversize payload: %v", err)
	}
}

// TestReplyPayloadIsCallersToKeep: a reply payload must not alias a
// buffer the connection reuses for the next frame.
func TestReplyPayloadIsCallersToKeep(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.CallPayload("mirror", nil, bytes.Repeat([]byte{0xAA}, 4096), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallPayload("mirror", nil, bytes.Repeat([]byte{0x55}, 4096), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, bytes.Repeat([]byte{0xAA}, 4096)) {
		t.Fatal("first reply payload changed when the connection was reused")
	}
}

// TestBadParamsIsRemoteError: params the typed handler cannot decode are
// the caller's error; the connection stays up.
func TestBadParamsIsRemoteError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var re *RemoteError
	if err := c.Call("echo", "not an object", nil); !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	var out string
	if err := c.Call("echo", echoArgs{Msg: "still alive"}, &out); err != nil || out != "still alive" {
		t.Fatalf("call after bad params: %q, %v", out, err)
	}
}

// TestOversizeFrameRefused: whatever lengths an (unauthenticated) peer
// announces, the server checks them before sizing a buffer and hangs up.
func TestOversizeFrameRefused(t *testing.T) {
	_, addr := startServer(t)
	for name, hdr := range map[string][8]byte{
		"1 GiB payload": {0, 0, 0, 2, 0x40, 0, 0, 0},
		"1 GiB head":    {0x40, 0, 0, 0, 0, 0, 0, 0},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: connection not closed: read %d, %v", name, n, err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: refusing the frame allocated %d bytes", name, grew)
		}
		conn.Close()
	}
}

// TestClientRedialsAfterTransportError: a broken connection fails the
// call that hit it (never retried) and nothing after it.
func TestClientRedialsAfterTransportError(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nilresult", nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close() // the peer restarts...
	err = c.Call("nilresult", nil, nil)
	var re *RemoteError
	if err == nil || errors.As(err, &re) {
		t.Fatalf("call on a dead connection: %v", err)
	}
	s2 := NewServer(t.Logf) // ...on the same port
	Handle(s2, "nilresult", func(struct{}, []byte) (any, []byte, error) { return "second", nil, nil })
	if _, err := s2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var out string
	if err := c.Call("nilresult", nil, &out); err != nil || out != "second" {
		t.Fatalf("call after peer restart: %q, %v", out, err)
	}
	// Close is final: no redial afterwards.
	c.Close()
	if err := c.Call("nilresult", nil, nil); err == nil {
		t.Fatal("call on a closed client succeeded")
	}
}

// frameBytes encodes one request frame the way a client would.
func frameBytes(t testing.TB, method string, params any, payload []byte) []byte {
	var buf bytes.Buffer
	if err := newFramer(&buf).write(1, statusOK, method, params, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedFrames returns request frames whose lengths are within the
// bounds but whose envelope is not valid, by what is wrong with each.
func malformedFrames(tb testing.TB) map[string][]byte {
	valid := frameBytes(tb, "mirror", echoArgs{Msg: "m"}, []byte("payload"))
	short := append([]byte(nil), valid[:8+envelope-1]...)
	short[3] = envelope - 1
	overrun := append([]byte(nil), valid...)
	overrun[8+9], overrun[8+10] = 0xff, 0xff
	unknown := append([]byte(nil), valid...)
	unknown[8+8] = 7
	return map[string][]byte{
		"head shorter than the envelope": short,
		"name length past the head":      overrun,
		"unknown status byte":            unknown,
	}
}

// TestMalformedHeadRefused: a frame whose envelope does not parse is not
// answered; the server hangs up.
func TestMalformedHeadRefused(t *testing.T) {
	_, addr := startServer(t)
	for name, frame := range malformedFrames(t) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: connection not closed: read %d, %v", name, n, err)
		}
		conn.Close()
	}
}

// FuzzServeConn throws arbitrary bytes at a server connection: it must
// not panic, must never hand a handler more than the bounds allow, and
// must never size a buffer past them.
func FuzzServeConn(f *testing.F) {
	valid := frameBytes(f, "mirror", echoArgs{Msg: "m"}, []byte("payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)-9])                         // truncated
	f.Add([]byte{0x00, 0x10, 0x00, 0x01, 0, 0, 0, 0})   // head one past the bound
	f.Add([]byte{0, 0, 0, 2, 0x00, 0x80, 0x00, 0x01})   // payload one past the bound
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames back to back
	for _, frame := range malformedFrames(f) {
		f.Add(frame)
	}
	s := NewServer(nil)
	Handle(s, "mirror", func(_ echoArgs, payload []byte) (any, []byte, error) {
		if len(payload) > MaxPayload {
			panic("handler got a payload past the bound")
		}
		return len(payload), payload, nil
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFramer(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		s.serve(fr)
		if cap(fr.in) > maxHead+MaxPayload || fr.out.Cap() > retainBuf {
			t.Fatalf("buffers grew to %d in, %d out", cap(fr.in), fr.out.Cap())
		}
	})
}
