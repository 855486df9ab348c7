package memserver

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/network"
)

// ErrClientBroken is returned by every operation after a transport error
// has poisoned the connection. A failed write or read can leave a frame
// half-transferred, so the stream's length-prefixed framing may be
// misaligned; continuing would let a caller read another request's bytes
// as its reply. The only safe recovery is a fresh connection (which
// a ClientPool lane automates).
var ErrClientBroken = errors.New("memserver: connection broken by a previous transport error")

// DefaultOpTimeout bounds one request/response round trip. A page server
// that takes longer than this is treated as failed: partial VMs block a
// guest fault for every outstanding request, so an unbounded wait wedges
// the VM harder than an error does.
const DefaultOpTimeout = 30 * time.Second

// DefaultDialTimeout bounds one connection attempt (connect, TLS
// handshake and authentication) when the caller names none.
const DefaultDialTimeout = 5 * time.Second

// Client is one authenticated connection to a memory page server: the
// exchanger that frames a call and puts it on the wire, with no retry and
// no state beyond the socket. Client serialises requests: the protocol is
// strictly request/response per connection.
type Client struct {
	ops // the protocol operations, written once over exchange

	mu        sync.Mutex
	conn      net.Conn
	opTimeout time.Duration
	// broken is atomic so a lane can test a connection's health without
	// queueing behind the round trip that holds mu.
	broken atomic.Bool

	// Reusable framing state, guarded by mu. Request frames are laid
	// out as segments in bufs (bufs[0] is always the 5-byte header
	// rebuilt per call in hdrArr); small frames coalesce into frame and
	// go out in one Write, large ones as vectored buffers. opArr holds
	// the fixed-size request prefix of the current call, so the upload
	// and GetPage hot paths allocate nothing per call.
	hdrArr [5]byte
	opArr  [24]byte
	frame  []byte
	bufs   net.Buffers

	// upMAC signs upload payloads with the per-connection session MAC
	// the handshake derived (see proto.go).
	upMAC *sessionGCM
}

// Dial connects to addr over nw (nil: network.TCP) and authenticates with
// the shared secret. The connect, any handshake nw adds and the
// challenge/response all finish within timeout (<= 0:
// DefaultDialTimeout, the one place that default is applied).
func Dial(nw network.Network, addr string, secret []byte, timeout time.Duration) (*Client, error) {
	if nw == nil {
		nw = network.TCP
	}
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	conn, err := nw.Dial(addr, deadline)
	if err != nil {
		return nil, fmt.Errorf("memserver: dial %s: %w", addr, err)
	}
	c := newClient(conn)
	if err := c.authenticate(secret, deadline); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// newClient wraps conn without authenticating.
func newClient(conn net.Conn) *Client {
	c := &Client{conn: conn, opTimeout: DefaultOpTimeout}
	c.ops.x = c
	return c
}

// SetOpTimeout bounds each request/response round trip (zero disables
// deadlines). The default is DefaultOpTimeout.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opTimeout = d
}

// Broken reports whether a transport error has poisoned the connection;
// every further operation returns ErrClientBroken.
func (c *Client) Broken() bool { return c.broken.Load() }

// markBroken poisons the client after a transport error and closes the
// connection so the peer's goroutine is released too. Callers hold c.mu.
func (c *Client) markBroken() {
	c.broken.Store(true)
	c.conn.Close()
}

func (c *Client) authenticate(secret []byte, deadline time.Time) error {
	c.conn.SetDeadline(deadline)
	defer c.conn.SetDeadline(time.Time{})
	typ, nonce, err := readFrame(c.conn)
	if err != nil {
		return fmt.Errorf("memserver: read challenge: %w", err)
	}
	if typ != msgChallenge {
		return errors.New("memserver: expected challenge")
	}
	h := hmac.New(sha256.New, secret)
	h.Write(nonce)
	if err := writeFrame(c.conn, msgAuth, h.Sum(nil)); err != nil {
		return err
	}
	typ, payload, err := readFrame(c.conn)
	if err != nil {
		return err
	}
	if typ == msgError {
		return remoteError(payload)
	}
	if typ != msgOK {
		return errors.New("memserver: unexpected auth reply")
	}
	c.upMAC = sessionMAC(secret, nonce)
	return nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// exchange frames and sends one call and returns the reply payload,
// mapping msgError replies to errors. Any transport error (failed write,
// failed or timed-out read, reply of an unexpected type) poisons the
// connection: the framing may be misaligned mid-frame, so subsequent
// calls get ErrClientBroken instead of another caller's bytes. A clean
// msgError reply is a server-level error, not a transport fault, and
// leaves the connection healthy.
func (c *Client) exchange(op call) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken.Load() {
		return nil, ErrClientBroken
	}
	// The prefix is copied into client scratch: a slice of the by-value
	// call stored in c.bufs would move every call to the heap.
	n := copy(c.opArr[:], op.prefix[:op.n])
	c.bufs = append(c.bufs[:0], nil, c.opArr[:n], op.segs[0], op.segs[1])
	if err := c.writeRequestLocked(op.req, op.mac); err != nil {
		c.markBroken()
		return nil, err
	}
	// hdrArr is free again once the request is on the wire; reusing it
	// for the reply header keeps empty-reply round trips allocation-free.
	rtyp, rpayload, err := readFrameHdr(c.conn, &c.hdrArr)
	if err != nil {
		c.markBroken()
		return nil, err
	}
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
	if rtyp == msgError {
		return nil, remoteError(rpayload)
	}
	if rtyp != op.want {
		c.markBroken()
		return nil, fmt.Errorf("memserver: unexpected reply type %d", rtyp)
	}
	return rpayload, nil
}

// writeRequestLocked frames and sends the request laid out in c.bufs[1:]
// (bufs[0] is reserved for the header, rebuilt here): the session-MAC
// trailer when withMAC, over the payload segments, header into hdrArr,
// then one coalesced Write (or a vectored write past coalesceLimit). It
// allocates nothing in steady state. Callers hold c.mu.
func (c *Client) writeRequestLocked(typ byte, withMAC bool) error {
	if withMAC {
		c.bufs = append(c.bufs, c.upMAC.compute(typ, c.bufs[1:]...))
	}
	total := 0
	for _, s := range c.bufs[1:] {
		total += len(s)
	}
	binary.BigEndian.PutUint32(c.hdrArr[:4], uint32(total))
	c.hdrArr[4] = typ
	c.bufs[0] = c.hdrArr[:5]
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	}
	return writeFrameBufs(c.conn, &c.frame, &c.bufs)
}
