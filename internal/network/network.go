// Package network is the one seam under the memory server's sockets:
// every client dial and every server listen goes through a Network, so
// the transport under them (plain TCP, TLS, a fault-injecting wrapper)
// is chosen by the value handed in, never by which function was called.
// It imports nothing else from the module, so the memory server, its
// shard fabric and the fault injector can all depend on it.
package network

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"time"
)

// Network opens connections to addresses and listens on them.
type Network interface {
	// Dial connects to addr, giving up at deadline (zero: no bound).
	Dial(addr string, deadline time.Time) (net.Conn, error)
	// Listen accepts connections on addr (e.g. "127.0.0.1:0").
	Listen(addr string) (net.Listener, error)
}

// TCP is the plain network: TCP sockets, nothing wrapped.
var TCP Network = tcp{}

type tcp struct{}

func (tcp) Dial(addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	return d.Dial("tcp", addr)
}

func (tcp) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// TLS returns inner with TLS 1.2 or later on top (the paper's §4.3
// "Security"). Its Dial verifies the server against roots, taking the
// server name from the address, and finishes the handshake by the dial's
// deadline; its Listen serves cert. A client-only network may leave cert
// empty, a server-only one roots nil.
func TLS(inner Network, cert tls.Certificate, roots *x509.CertPool) Network {
	return &tlsNetwork{inner: inner, cert: cert, roots: roots}
}

type tlsNetwork struct {
	inner Network
	cert  tls.Certificate
	roots *x509.CertPool
}

func (n *tlsNetwork) Dial(addr string, deadline time.Time) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	raw, err := n.inner.Dial(addr, deadline)
	if err != nil {
		return nil, err
	}
	conn := tls.Client(raw, &tls.Config{RootCAs: n.roots, ServerName: host, MinVersion: tls.VersionTLS12})
	conn.SetDeadline(deadline)
	if err := conn.Handshake(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("tls handshake: %w", err)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

func (n *tlsNetwork) Listen(addr string) (net.Listener, error) {
	ln, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tls.NewListener(ln, &tls.Config{Certificates: []tls.Certificate{n.cert}, MinVersion: tls.VersionTLS12}), nil
}
