// Package wire is the small RPC layer the cluster manager and host agents
// speak (§4.1: "It provides an RPC interface that clients use to create
// and manage VMs"). A frame is a fixed binary envelope, a JSON body and an
// optional raw byte payload, which is how a guest page or a snapshot chunk
// travels: as the bytes it is, never as text.
//
//	u32 head len | u32 payload len | u64 id | u8 status | u16 name len | name | body | payload
//
// The head runs from id to the end of body. name is a request's method or
// a failed reply's error text, body the JSON params or result (left out
// when nil), so a packet dump stays readable. Both lengths are bounded
// (maxHead, MaxPayload) and checked before any buffer is sized, because the
// socket is unauthenticated: a peer can make an endpoint allocate at most
// those two bounds, whatever it announces. The body is encoded once into
// the connection's own buffer and decoded once, into the handler's params
// or the caller's out; header, head and payload leave in a single Write
// (writev when there is a payload, which is never copied), so a round trip
// costs one segment each way instead of tangling a header write with
// Nagle/delayed-ACK. See PERFORMANCE.md for how the control path is measured.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

const (
	// maxHead bounds a frame's head: method, arguments, a VM descriptor or
	// a host's stats — never page contents.
	maxHead = 1 << 20
	// MaxPayload bounds a frame's byte payload: one snapshot chunk of the
	// streaming budget (memserver.DefaultChunkBytes, 4 MiB) with room to
	// spare. Senders cut anything larger into several calls.
	MaxPayload = 8 << 20
	// retainBuf is the largest buffer a connection keeps between frames;
	// one that grew for a snapshot chunk is dropped rather than pinned
	// for the life of the connection.
	retainBuf = 1 << 20
	// envelope is the fixed start of every head: id, status, name length.
	envelope = 8 + 1 + 2
)

// A reply's status; a request carries statusOK.
const statusOK, statusFailed byte = 0, 1

// frame is one received frame. name and body alias the framer's buffer
// and are valid until its next read or write; payload is as read says.
type frame struct {
	id                  uint64
	status              byte
	name, body, payload []byte
}

// framer reads and writes frames on one connection, reusing its buffers
// and header scratch from frame to frame. One goroutine at a time.
type framer struct {
	w      io.Writer
	r      *bufio.Reader
	out    bytes.Buffer
	enc    *json.Encoder
	bufs   net.Buffers
	bufArr [2][]byte
	hdr    [8]byte
	in     []byte
}

func newFramer(conn io.ReadWriter) *framer {
	f := &framer{w: conn, r: bufio.NewReaderSize(conn, 8<<10)}
	f.enc = json.NewEncoder(&f.out)
	return f
}

var zeroHdr [8 + envelope]byte

// write sends one frame, cutting name to its u16 bound and leaving the
// body out when body is nil. (The encoder's trailing newline is counted in
// the body and skipped by json's whitespace handling on the far side.)
// Whatever the previous read returned is dead once an endpoint writes
// again, so this is also where buffers that grew past retainBuf go.
func (f *framer) write(id uint64, status byte, name string, body any, payload []byte) error {
	name = name[:min(len(name), math.MaxUint16)]
	f.out.Reset()
	f.out.Write(zeroHdr[:])
	f.out.WriteString(name)
	if body != nil {
		if err := f.enc.Encode(body); err != nil {
			return fmt.Errorf("wire: encode: %w", err)
		}
	}
	b := f.out.Bytes()
	if err := checkBounds(len(b)-8, len(payload)); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-8))
	binary.BigEndian.PutUint32(b[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint64(b[8:16], id)
	b[16] = status
	binary.BigEndian.PutUint16(b[17:19], uint16(len(name)))
	var err error
	if len(payload) == 0 {
		_, err = f.w.Write(b)
	} else {
		f.bufs = append(f.bufArr[:0], b, payload)
		_, err = f.bufs.WriteTo(f.w)
	}
	if f.out.Cap() > retainBuf {
		f.out = bytes.Buffer{}
		f.enc = json.NewEncoder(&f.out)
	}
	if cap(f.in) > retainBuf {
		f.in = nil
	}
	return err
}

// read receives one frame. With own set the payload is a fresh slice the
// caller keeps; otherwise it lives in the framer's buffer and is valid
// until the next read.
func (f *framer) read(own bool) (in frame, err error) {
	if _, err = io.ReadFull(f.r, f.hdr[:]); err != nil {
		return in, err
	}
	hl, pl := int(binary.BigEndian.Uint32(f.hdr[:4])), int(binary.BigEndian.Uint32(f.hdr[4:]))
	if err = checkBounds(hl, pl); err != nil {
		return in, err
	}
	if hl < envelope {
		return in, fmt.Errorf("head of %d bytes is shorter than its %d-byte envelope", hl, envelope)
	}
	n := hl
	if !own {
		n += pl
	}
	if cap(f.in) < n {
		f.in = make([]byte, n)
	}
	head := f.in[:hl:hl]
	if in.payload = f.in[hl:n:n]; own && pl > 0 {
		in.payload = make([]byte, pl)
	}
	if _, err = io.ReadFull(f.r, head); err != nil {
		return in, err
	}
	nl := int(binary.BigEndian.Uint16(head[9:envelope]))
	if nl > hl-envelope || head[8] > statusFailed {
		return in, fmt.Errorf("bad head: status %d, name of %d bytes in %d", head[8], nl, hl)
	}
	in.id, in.status = binary.BigEndian.Uint64(head), head[8]
	in.name, in.body = head[envelope:envelope+nl], head[envelope+nl:]
	_, err = io.ReadFull(f.r, in.payload)
	return in, err
}

func checkBounds(head, payload int) error {
	if head > maxHead || payload > MaxPayload {
		return fmt.Errorf("frame of %d+%d bytes exceeds limit %d+%d", head, payload, maxHead, MaxPayload)
	}
	return nil
}

// handler serves one method: the request's JSON body and payload in,
// result (JSON-encoded into the reply's body) and reply payload out. Both
// inputs are only valid during the call.
type handler func(body, payload []byte) (result any, reply []byte, err error)

// Server dispatches RPC requests to registered handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	logf     func(string, ...any)
}

// NewServer returns an empty RPC server. logf may be nil.
func NewServer(logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		handlers: make(map[string]handler),
		conns:    make(map[net.Conn]struct{}),
		logf:     logf,
	}
}

// Handle registers fn for method. The request's params are decoded into
// a T before fn runs (a decode failure is the caller's RemoteError, not a
// dropped connection); payload is the request's byte part, valid only
// during the call. fn's result is JSON-encoded into the reply's body and
// reply travels beside it as bytes.
func Handle[T any](s *Server, method string, fn func(args T, payload []byte) (result any, reply []byte, err error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = func(body, payload []byte) (any, []byte, error) {
		var args T
		if len(body) > 0 {
			if err := json.Unmarshal(body, &args); err != nil {
				return nil, nil, fmt.Errorf("bad params: %w", err)
			}
		}
		return fn(args, payload)
	}
}

// Listen starts accepting connections on addr and returns the bound
// address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr(), nil
}

// Close stops the listener and open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.isClosed() {
				s.logf("wire: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			s.serve(newFramer(conn))
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// serve answers requests until the connection fails or sends a frame it
// must refuse (malformed or past the bounds); the caller then closes it.
func (s *Server) serve(f *framer) {
	for {
		in, err := f.read(false)
		if err != nil {
			if err != io.EOF && !s.isClosed() {
				s.logf("wire: read request: %v", err)
			}
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[string(in.name)]
		s.mu.RUnlock()
		var result any
		var reply []byte
		if !ok {
			err = fmt.Errorf("unknown method %q", in.name)
		} else {
			result, reply, err = h(in.body, in.payload)
		}
		status, msg := statusOK, ""
		if err != nil {
			status, msg, result, reply = statusFailed, err.Error(), nil, nil
		}
		if err := f.write(in.id, status, msg, result, reply); err != nil {
			s.logf("wire: write response: %v", err)
			return
		}
	}
}

// Client is an RPC connection to one address. Calls are serialised; it
// is safe for concurrent use. A transport failure closes the connection
// and the next call dials the address again, so a Client outlives a
// restart of its peer.
type Client struct {
	addr string

	mu   sync.Mutex // serialises calls (and their redial); guards next
	next uint64

	connMu sync.Mutex // guards the fields below; never held across I/O
	conn   net.Conn   // nil after a transport failure, until the next call
	f      *framer
	closed bool
}

var errClosed = errors.New("wire: client is closed")

// Dial connects to an RPC server.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	if _, err := c.live(); err != nil {
		return nil, err
	}
	return c, nil
}

// live returns the connection's framer, dialing first if the client has
// no connection. Called with c.mu held (or before c is shared).
func (c *Client) live() (*framer, error) {
	c.connMu.Lock()
	f, closed := c.f, c.closed
	c.connMu.Unlock()
	if closed {
		return nil, errClosed
	}
	if f != nil {
		return f, nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		conn.Close()
		return nil, errClosed
	}
	c.conn, c.f = conn, newFramer(conn)
	return c.f, nil
}

// hangUp closes the current connection, if any; for good when final.
func (c *Client) hangUp(final bool) error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = c.closed || final
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.f = nil, nil
	return err
}

// Close terminates the connection for good; it may interrupt a call in
// flight.
func (c *Client) Close() error { return c.hangUp(true) }

// Call invokes method with params and no payload, decoding the result
// into out (which may be nil to discard it).
func (c *Client) Call(method string, params, out any) error {
	_, err := c.CallPayload(method, params, nil, out)
	return err
}

// CallPayload invokes method with params as the body and payload as the
// frame's byte part, decodes the result into out (nil discards it) and
// returns the reply's payload, which is the caller's to keep. Remote
// errors come back as *RemoteError. Any other error means the stream can
// no longer be trusted: the connection is closed and the next call
// redials. The failed call itself is never retried — the methods carried
// here are not idempotent.
func (c *Client) CallPayload(method string, params any, payload []byte, out any) (reply []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.live()
	if err != nil {
		return nil, err
	}
	c.next++
	var in frame
	if err = f.write(c.next, statusOK, method, params, payload); err == nil {
		in, err = f.read(true)
	}
	switch {
	case err != nil:
	case in.id != c.next:
		err = fmt.Errorf("response id %d for request %d", in.id, c.next)
	case in.status == statusFailed:
		return nil, &RemoteError{Method: method, Msg: string(in.name)}
	case len(in.body) > 0 && out != nil:
		err = json.Unmarshal(in.body, out)
	}
	if err != nil {
		c.hangUp(false)
		return nil, fmt.Errorf("wire: %s at %s: %w", method, c.addr, err)
	}
	return in.payload, nil
}

// RemoteError is an error reported by the RPC peer.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("wire: %s: %s", e.Method, e.Msg) }
