package memserver

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"testing"
	"time"

	"oasis/internal/network"
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
