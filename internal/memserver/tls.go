package memserver

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"time"
)

// The paper (§4.3 "Security") prescribes TLS between the page server and
// memtap clients so that local-area hosts can neither request other VMs'
// pages nor eavesdrop on page transfers, with certificates issued by the
// enterprise's IT administrator. This file provides that deployment mode:
// a self-signed certificate helper standing in for the enterprise CA,
// plus TLS variants of Listen and Dial. The HMAC challenge/response still
// runs inside the TLS session, mirroring the paper's client+server
// authentication.

// GenerateCert creates a self-signed ECDSA P-256 certificate for the
// given host names / IPs, valid for a year, and a pool that trusts it.
// Production deployments would use enterprise-CA-issued certificates
// instead.
func GenerateCert(hosts []string) (tls.Certificate, *x509.CertPool, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: "oasis memory server", Organization: []string{"oasis"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, pool, nil
}

// ListenTLS starts accepting TLS connections on addr with the given
// certificate, returning the bound address. Page contents are then
// encrypted on the wire, preventing the eavesdropping attack of §4.3.
func (s *Server) ListenTLS(addr string, cert tls.Certificate) (net.Addr, error) {
	ln, err := tls.Listen("tcp", addr, &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	})
	if err != nil {
		return nil, fmt.Errorf("memserver: listen tls: %w", err)
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr(), nil
}

// DialTLS connects over TLS (verifying the server against roots) and then
// authenticates with the shared-secret challenge, combining transport
// encryption with client authentication.
func DialTLS(addr string, secret []byte, roots *x509.CertPool, timeout time.Duration) (*Client, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("memserver: dial tls %s: %w", addr, err)
	}
	d := dialer(timeout)
	conn, err := tls.DialWithDialer(d, "tcp", addr, &tls.Config{
		RootCAs:    roots,
		ServerName: host,
		MinVersion: tls.VersionTLS12,
	})
	if err != nil {
		return nil, fmt.Errorf("memserver: dial tls %s: %w", addr, err)
	}
	return authenticated(conn, secret, d.Deadline)
}
