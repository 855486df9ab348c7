// Package wire is the small RPC layer the cluster manager and host agents
// speak (§4.1: "It provides an RPC interface that clients use to create
// and manage VMs"). A frame has two length-checked parts: a small JSON
// head (id, method, params — or id, error, result) that a debugger can
// read, and an optional raw byte payload after it, which is how a guest
// page or a snapshot chunk travels: as the bytes it is, never as text.
//
//	u32 head length | u32 payload length | head (JSON) | payload
//
// Both lengths are bounded (maxHead, MaxPayload) and checked before any
// buffer is sized, because the socket is unauthenticated: a peer can make
// an endpoint allocate at most those two bounds, whatever it announces.
// The head is encoded once, straight from the caller's value, into the
// connection's own buffer; header, head and payload leave in a single
// Write (writev when there is a payload, which is never copied), so a
// round trip costs one segment each way instead of tangling a header
// write with Nagle/delayed-ACK. See PERFORMANCE.md for how the control
// path is measured.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

const (
	// maxHead bounds a frame's JSON head: method, arguments, a VM
	// descriptor or a host's stats — never page contents.
	maxHead = 1 << 20
	// MaxPayload bounds a frame's byte payload: one snapshot chunk of the
	// streaming budget (memserver.DefaultChunkBytes, 4 MiB) with room to
	// spare. Senders cut anything larger into several calls.
	MaxPayload = 8 << 20
	// retainBuf is the largest buffer a connection keeps between frames;
	// one that grew for a snapshot chunk is dropped rather than pinned
	// for the life of the connection.
	retainBuf = 1 << 20
)

// The send side encodes params and result once, as the values they are;
// the receive side delimits params (the server learns the type from the
// method) and decodes the result straight into the caller's out.
type (
	request struct {
		ID     uint64 `json:"id"`
		Method string `json:"method"`
		Params any    `json:"params,omitempty"`
	}
	requestIn struct {
		ID     uint64          `json:"id"`
		Method string          `json:"method"`
		Params json.RawMessage `json:"params"`
	}
	response struct {
		ID     uint64 `json:"id"`
		Error  string `json:"error,omitempty"`
		Result any    `json:"result,omitempty"`
	}
)

// framer reads and writes frames on one connection, reusing its buffers
// from frame to frame. One goroutine at a time.
type framer struct {
	w   io.Writer
	r   *bufio.Reader
	out bytes.Buffer
	enc *json.Encoder
	in  []byte
}

func newFramer(conn io.ReadWriter) *framer {
	f := &framer{w: conn, r: bufio.NewReaderSize(conn, 8<<10)}
	f.enc = json.NewEncoder(&f.out)
	return f
}

var zeroHdr [8]byte

// write sends one frame. (The encoder's trailing newline is counted in
// the head and skipped by json's whitespace handling on the far side.)
// Whatever the previous read returned is dead once an endpoint writes
// again, so this is also where buffers that grew past retainBuf go.
func (f *framer) write(head any, payload []byte) error {
	f.out.Reset()
	f.out.Write(zeroHdr[:])
	if err := f.enc.Encode(head); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	b := f.out.Bytes()
	if err := checkBounds(len(b)-8, len(payload)); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-8))
	binary.BigEndian.PutUint32(b[4:8], uint32(len(payload)))
	var err error
	if len(payload) == 0 {
		_, err = f.w.Write(b)
	} else {
		_, err = (&net.Buffers{b, payload}).WriteTo(f.w)
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

// read receives one frame, decoding its head into head. With own set the
// payload is a fresh slice the caller keeps; otherwise it lives in the
// framer's buffer and is valid until the next read.
func (f *framer) read(head any, own bool) (payload []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
		return nil, err
	}
	hl, pl := int(binary.BigEndian.Uint32(hdr[:4])), int(binary.BigEndian.Uint32(hdr[4:]))
	if err := checkBounds(hl, pl); err != nil {
		return nil, err
	}
	n := hl
	if !own {
		n += pl
	}
	if cap(f.in) < n {
		f.in = make([]byte, n)
	}
	buf := f.in[:n:n]
	if payload = buf[hl:]; own && pl > 0 {
		payload = make([]byte, pl)
	}
	if _, err := io.ReadFull(f.r, buf[:hl]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return nil, err
	}
	return payload, json.Unmarshal(buf[:hl], head)
}

func checkBounds(head, payload int) error {
	if head > maxHead || payload > MaxPayload {
		return fmt.Errorf("frame of %d+%d bytes exceeds limit %d+%d", head, payload, maxHead, MaxPayload)
	}
	return nil
}

// handler serves one method: raw params and the request payload in,
// result (JSON-encoded into the reply head) and reply payload out. The
// request payload is only valid during the call.
type handler func(params json.RawMessage, payload []byte) (result any, reply []byte, err error)

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
// during the call. fn's result is JSON-encoded into the reply head and
// reply travels beside it as bytes.
func Handle[T any](s *Server, method string, fn func(args T, payload []byte) (result any, reply []byte, err error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = func(params json.RawMessage, payload []byte) (any, []byte, error) {
		var args T
		if len(params) > 0 {
			if err := json.Unmarshal(params, &args); err != nil {
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
		var req requestIn
		payload, err := f.read(&req, false)
		if err != nil {
			if err != io.EOF && !s.isClosed() {
				s.logf("wire: read request: %v", err)
			}
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[req.Method]
		s.mu.RUnlock()
		resp := response{ID: req.ID}
		var reply []byte
		if !ok {
			resp.Error = fmt.Sprintf("unknown method %q", req.Method)
		} else if resp.Result, reply, err = h(req.Params, payload); err != nil {
			resp.Error, resp.Result, reply = err.Error(), nil, nil
		}
		if err := f.write(&resp, reply); err != nil {
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

// CallPayload invokes method with params in the head and payload as the
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
	resp := response{Result: out}
	if err = f.write(&request{ID: c.next, Method: method, Params: params}, payload); err == nil {
		reply, err = f.read(&resp, true)
	}
	if err == nil && resp.ID != c.next {
		err = fmt.Errorf("response id %d for request %d", resp.ID, c.next)
	}
	if err != nil {
		c.hangUp(false)
		return nil, fmt.Errorf("wire: %s at %s: %w", method, c.addr, err)
	}
	if resp.Error != "" {
		return nil, &RemoteError{Method: method, Msg: resp.Error}
	}
	return reply, nil
}

// RemoteError is an error reported by the RPC peer.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("wire: %s: %s", e.Method, e.Msg) }
