package memserver

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// This file is a lane: the one socket it owns, the handshake that
// authenticates it, and the framing of one request/response round trip
// on it. A lane holds no retry or breaker state; the ClientPool it
// belongs to retries and records every attempt's outcome.

// DefaultOpTimeout bounds one request/response round trip. A page server
// that takes longer than this is treated as failed: partial VMs block a
// guest fault for every outstanding request, so an unbounded wait wedges
// the VM harder than an error does.
const DefaultOpTimeout = 30 * time.Second

// DefaultDialTimeout bounds one connection attempt (connect, TLS
// handshake and authentication) when the caller names none.
const DefaultDialTimeout = 5 * time.Second

// lane is one connection of a ClientPool to its server. It is safe for
// concurrent use; attempts serialise on the socket, since the protocol is
// strictly request/response per connection.
type lane struct {
	addr   string
	secret []byte
	cfg    *ResilientConfig // the pool's: DialTimeout, OpTimeout, Network

	// callMu serialises attempts, each a (re)dial if needed plus one
	// round trip, and guards everything below. Holding it across both
	// means at most one dial is ever in flight, and no caller queues on a
	// socket the caller ahead of it is about to drop — one transport
	// error is one failure to the breaker, however many calls were
	// waiting. Every function in this file runs under it.
	callMu   sync.Mutex
	conn     net.Conn      // nil when disconnected
	r        *bufio.Reader // conn's reads; made and dropped with it
	deadline time.Time     // conn's armed deadline (see rearm)
	everConn bool
	// Reusable framing state. Request frames are laid out as segments in
	// bufs (bufs[0] is always the 5-byte header rebuilt per call in
	// hdrArr); small frames coalesce into frame and go out in one Write,
	// large ones as vectored buffers. opArr holds the fixed-size request
	// prefix of the current call, so the upload and GetPage hot paths
	// allocate nothing per call.
	hdrArr [5]byte
	opArr  [24]byte
	frame  []byte
	bufs   net.Buffers
	// upMAC signs upload payloads with the session MAC the current
	// socket's handshake derived (see proto.go).
	upMAC *sessionGCM
}

// close shuts the socket down once the attempt in flight, if any, has
// finished. The lane may still be used afterwards; the next call
// reconnects.
func (l *lane) close() error {
	l.callMu.Lock()
	defer l.callMu.Unlock()
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn, l.r = nil, nil
	return err
}

// attempt makes one try at c: over the current socket if there is one,
// else over a fresh one, reporting whether it redialed a lane that had
// been connected before. A call with no request type (DialPool's eager
// dial) is done once connected. A black-holed server can park the dial
// for DialTimeout; only callMu is held, so the pool's breaker and its
// other lanes stay available.
func (l *lane) attempt(c call) (reply []byte, redialed bool, err error) {
	l.callMu.Lock()
	defer l.callMu.Unlock()
	if l.conn == nil {
		if err := l.dial(); err != nil {
			return nil, false, err
		}
		redialed, l.everConn = l.everConn, true
	}
	if c.req == 0 {
		return nil, redialed, nil
	}
	reply, err = l.roundTrip(c)
	return reply, redialed, err
}

// dial connects to the lane's server over its network and authenticates
// with the shared secret. The connect, any handshake the network adds and
// the challenge/response all finish within DialTimeout. The socket's
// reader is made here and lives exactly as long as the socket, so bytes
// buffered from a dead connection are never read as a reply on the next.
func (l *lane) dial() error {
	deadline := time.Now().Add(l.cfg.DialTimeout)
	conn, err := l.cfg.Network.Dial(l.addr, deadline)
	if err != nil {
		return fmt.Errorf("memserver: dial %s: %w", l.addr, err)
	}
	r := bufio.NewReaderSize(conn, readerSize)
	if err := l.authenticate(conn, r, deadline); err != nil {
		conn.Close()
		return err
	}
	l.conn, l.r, l.deadline = conn, r, time.Time{}
	return nil
}

// authenticate answers the server's challenge on conn, reading through
// r, and, once the server accepts, derives the session MAC that signs
// this connection's upload payloads (see proto.go).
func (l *lane) authenticate(conn net.Conn, r *bufio.Reader, deadline time.Time) error {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	typ, nonce, err := readFrame(r)
	if err != nil {
		return fmt.Errorf("memserver: read challenge: %w", err)
	}
	if typ != msgChallenge {
		return errors.New("memserver: expected challenge")
	}
	h := hmac.New(sha256.New, l.secret)
	h.Write(nonce)
	if err := writeFrame(conn, msgAuth, h.Sum(nil)); err != nil {
		return err
	}
	typ, payload, err := readFrame(r)
	if err != nil {
		return err
	}
	if typ == msgError {
		return remoteError(payload)
	}
	if typ != msgOK {
		return errors.New("memserver: unexpected auth reply")
	}
	l.upMAC = sessionMAC(l.secret, nonce)
	return nil
}

// roundTrip frames and sends one call over the lane's socket and returns
// the reply payload, mapping a msgError reply to a remoteError. Any
// transport error (failed write, failed or timed-out read, reply of an
// unexpected type) drops the socket: the framing may be misaligned
// mid-frame, so the next attempt dials afresh instead of reading another
// request's bytes as its reply. A clean msgError reply is a server-level
// error, not a transport fault, and keeps the socket.
func (l *lane) roundTrip(op call) ([]byte, error) {
	// The prefix is copied into lane scratch: a slice of the by-value
	// call stored in l.bufs would move every call to the heap.
	n := copy(l.opArr[:], op.prefix[:op.n])
	l.bufs = append(l.bufs[:0], nil, l.opArr[:n], op.segs[0], op.segs[1])
	if err := l.writeRequestLocked(op.req, op.mac); err != nil {
		l.drop()
		return nil, err
	}
	// hdrArr is free again once the request is on the wire; reusing it
	// for the reply header keeps empty-reply round trips allocation-free.
	rtyp, rpayload, err := readFrameHdr(l.r, &l.hdrArr)
	if err != nil {
		l.drop()
		return nil, err
	}
	if rtyp == msgError {
		return nil, remoteError(rpayload)
	}
	if rtyp != op.want {
		l.drop()
		return nil, fmt.Errorf("memserver: unexpected reply type %d", rtyp)
	}
	return rpayload, nil
}

// drop closes the socket, which also releases the server's goroutine,
// and leaves the lane disconnected. The socket's reader goes with it.
func (l *lane) drop() {
	l.conn.Close()
	l.conn, l.r = nil, nil
}

// writeRequestLocked frames and sends the request laid out in l.bufs[1:]
// (bufs[0] is reserved for the header, rebuilt here): the session-MAC
// trailer when withMAC, over the payload segments, header into hdrArr,
// then one coalesced Write (or a vectored write past coalesceLimit),
// under the OpTimeout deadline, which moves only when it has gone stale
// (see rearm). It allocates nothing in steady state.
func (l *lane) writeRequestLocked(typ byte, withMAC bool) error {
	if withMAC {
		l.bufs = append(l.bufs, l.upMAC.compute(typ, l.bufs[1:]...))
	}
	total := 0
	for _, s := range l.bufs[1:] {
		total += len(s)
	}
	binary.BigEndian.PutUint32(l.hdrArr[:4], uint32(total))
	l.hdrArr[4] = typ
	l.bufs[0] = l.hdrArr[:5]
	if now := time.Now(); rearm(l.deadline, now, l.cfg.OpTimeout) {
		l.deadline = now.Add(l.cfg.OpTimeout)
		l.conn.SetDeadline(l.deadline)
	}
	return writeFrameBufs(l.conn, &l.frame, &l.bufs)
}
