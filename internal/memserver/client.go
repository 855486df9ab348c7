package memserver

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"
)

// This file is a lane's connection: the one socket it owns, the
// handshake that authenticates it, and the framing of one
// request/response round trip on it. Every function here runs under the
// lane's callMu, which is the only lock a round trip takes.

// DefaultOpTimeout bounds one request/response round trip. A page server
// that takes longer than this is treated as failed: partial VMs block a
// guest fault for every outstanding request, so an unbounded wait wedges
// the VM harder than an error does.
const DefaultOpTimeout = 30 * time.Second

// DefaultDialTimeout bounds one connection attempt (connect, TLS
// handshake and authentication) when the caller names none.
const DefaultDialTimeout = 5 * time.Second

// dial connects to the lane's server over its network and authenticates
// with the shared secret. The connect, any handshake the network adds and
// the challenge/response all finish within DialTimeout.
func (l *lane) dial() error {
	deadline := time.Now().Add(l.cfg.DialTimeout)
	conn, err := l.cfg.Network.Dial(l.addr, deadline)
	if err != nil {
		return fmt.Errorf("memserver: dial %s: %w", l.addr, err)
	}
	if err := l.authenticate(conn, deadline); err != nil {
		conn.Close()
		return err
	}
	l.conn = conn
	return nil
}

// authenticate answers the server's challenge on conn and, once the
// server accepts, derives the session MAC that signs this connection's
// upload payloads (see proto.go).
func (l *lane) authenticate(conn net.Conn, deadline time.Time) error {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	typ, nonce, err := readFrame(conn)
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
	typ, payload, err := readFrame(conn)
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
	rtyp, rpayload, err := readFrameHdr(l.conn, &l.hdrArr)
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
// and leaves the lane disconnected.
func (l *lane) drop() {
	l.conn.Close()
	l.conn = nil
}

// writeRequestLocked frames and sends the request laid out in l.bufs[1:]
// (bufs[0] is reserved for the header, rebuilt here): the session-MAC
// trailer when withMAC, over the payload segments, header into hdrArr,
// then one coalesced Write (or a vectored write past coalesceLimit),
// under the OpTimeout deadline. It allocates nothing in steady state.
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
	l.conn.SetDeadline(time.Now().Add(l.cfg.OpTimeout))
	return writeFrameBufs(l.conn, &l.frame, &l.bufs)
}
