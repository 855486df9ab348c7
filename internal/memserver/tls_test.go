package memserver

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis/internal/network"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// serveTLS starts a server that listens over network.TLS with cert and
// returns its address.
func serveTLS(t *testing.T, cert tls.Certificate) string {
	t.Helper()
	ln, err := network.TLS(network.TCP, cert, nil).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(testSecret, t.Logf)
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

// tlsTo is a client's TLS network, trusting roots.
func tlsTo(roots *x509.CertPool) network.Network {
	return network.TLS(network.TCP, tls.Certificate{}, roots)
}

func TestTLSUploadAndFetch(t *testing.T) {
	cert, pool, err := GenerateCert([]string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTLS(t, cert)

	c, err := Dial(tlsTo(pool), addr, testSecret, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	src, snap := makeSnapshot(t, 4*units.MiB, 17, 30)
	if err := c.PutImage(55, 4*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	want, _ := src.Read(7)
	got, err := c.GetPage(55, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page mismatch over TLS")
	}
}

func TestTLSRejectsUntrustedServer(t *testing.T) {
	cert, _, err := GenerateCert([]string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTLS(t, cert)

	// A client with an empty root pool must refuse the connection: this
	// is the §4.3 server-authenticity property.
	if _, err := Dial(tlsTo(x509.NewCertPool()), addr, testSecret, 2*time.Second); err == nil {
		t.Fatal("untrusted server certificate accepted")
	}
}

func TestTLSStillRequiresSecret(t *testing.T) {
	cert, pool, err := GenerateCert([]string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTLS(t, cert)

	// Transport security does not replace client authentication: the
	// HMAC challenge still runs inside the session.
	if _, err := Dial(tlsTo(pool), addr, []byte("wrong"), 2*time.Second); err == nil {
		t.Fatal("bad shared secret accepted over TLS")
	}
}

// TestFailedTLSHandshakeIsNotAnAuthFailure: a client that distrusts the
// server's certificate, and one that does not speak TLS at all, are
// logged as failed TLS handshakes; neither counts as a wrong secret.
func TestFailedTLSHandshakeIsNotAnAuthFailure(t *testing.T) {
	cert, _, err := GenerateCert([]string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := network.TLS(network.TCP, cert, nil).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	reg := telemetry.NewRegistry()
	s := NewServer(testSecret, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	s.SetMetricsRegistry(reg)
	s.Serve(ln)
	defer s.Close()
	addr := ln.Addr().String()
	// handshakeFailures waits until the server has logged n failed
	// handshakes and returns everything it logged.
	handshakeFailures := func(n int) []string {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			got, logged := 0, slices.Clone(lines)
			mu.Unlock()
			for _, l := range logged {
				if strings.Contains(l, "tls handshake from") {
					got++
				}
			}
			if got >= n {
				return logged
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d failed TLS handshakes logged, want %d: %q", got, n, logged)
			}
		}
	}

	if _, err := Dial(tlsTo(x509.NewCertPool()), addr, testSecret, 2*time.Second); err == nil {
		t.Fatal("untrusted server certificate accepted")
	}
	handshakeFailures(1)
	// A plain-TCP client waits for the challenge that never comes and
	// hangs up; the server is still waiting for its ClientHello.
	if _, err := Dial(network.TCP, addr, testSecret, 200*time.Millisecond); err == nil {
		t.Fatal("a plain-TCP client authenticated against a TLS listener")
	}
	for _, l := range handshakeFailures(2) {
		if strings.Contains(l, "auth failure") {
			t.Errorf("a failed TLS handshake was logged as an auth failure: %q", l)
		}
	}
	if n := reg.Counter("oasis_memserver_auth_failures_total", "").Value(); n != 0 {
		t.Errorf("auth failures = %v after two failed TLS handshakes, want 0", n)
	}
}

func TestGenerateCertHosts(t *testing.T) {
	cert, _, err := GenerateCert([]string{"127.0.0.1", "memserver.rack1.example"})
	if err != nil {
		t.Fatal(err)
	}
	leaf := cert.Leaf
	if len(leaf.IPAddresses) != 1 || len(leaf.DNSNames) != 1 {
		t.Fatalf("SANs = %v / %v", leaf.IPAddresses, leaf.DNSNames)
	}
	if time.Until(leaf.NotAfter) < 300*24*time.Hour {
		t.Error("certificate validity too short")
	}
}
