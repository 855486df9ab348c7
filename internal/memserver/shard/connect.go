package shard

import (
	"crypto/x509"
	"time"

	"oasis/internal/memserver"
)

// Target names a memory-server tier and how to reach it. It is the
// input of Connect, the one place the client shape is decided.
type Target struct {
	// Addr is the single server to dial. Ignored when Backends is set.
	Addr string
	// Backends, when non-empty, is the shard fabric to dial instead,
	// with Replicas copies of every page range (<= 0 takes
	// DefaultReplicas).
	Backends []string
	Replicas int
	// Resilience, when non-nil, asks for self-healing connections
	// (reconnect, bounded retries, circuit breaker) tuned by it. A fabric
	// is always resilient; nil gives its backends the defaults.
	Resilience *memserver.ResilientConfig
	// Lanes is the resilient connections per server: on a single server
	// <= 1 is one lane, on a fabric <= 0 takes memserver.DefaultPoolSize.
	// Ignored on a single server without Resilience.
	Lanes int
	// TLSRoots, when non-nil, dials every connection over TLS verified
	// against these roots; the shared-secret challenge still runs inside
	// the session.
	TLSRoots *x509.CertPool
	// DialTimeout bounds every (re)connect. Zero takes
	// Resilience.DialTimeout, else memserver.DefaultDialTimeout.
	DialTimeout time.Duration
}

// Connect dials t and returns the client shape it calls for: a
// *shard.Client for a fabric, a *memserver.ClientPool when resilience is
// asked for, and otherwise one bare *memserver.Client. Every layer that
// opens a memory-server connection on a user's behalf (the facade's
// Dial, memtap, the host agent) comes through here, so TLS, timeouts and
// resilience apply to every connection of whichever shape results.
func Connect(t Target, secret []byte) (memserver.Conn, error) {
	var res memserver.ResilientConfig
	if t.Resilience != nil {
		res = *t.Resilience
	}
	if t.DialTimeout > 0 {
		res.DialTimeout = t.DialTimeout
	}
	if res.DialTimeout <= 0 {
		res.DialTimeout = memserver.DefaultDialTimeout
	}
	secret = append([]byte(nil), secret...)
	dial := func(addr string) (*memserver.Client, error) {
		if t.TLSRoots != nil {
			return memserver.DialTLS(addr, secret, t.TLSRoots, res.DialTimeout)
		}
		return memserver.Dial(addr, secret, res.DialTimeout)
	}
	switch {
	case len(t.Backends) > 0:
		f, err := Dial(t.Backends, secret, Config{
			Replicas: t.Replicas,
			Pool:     memserver.PoolConfig{Size: t.Lanes, Resilience: res},
			Dialer:   dial,
		})
		if err != nil {
			return nil, err
		}
		return f, nil
	case t.Resilience != nil:
		if res.Dialer == nil {
			res.Dialer = func() (*memserver.Client, error) { return dial(t.Addr) }
		}
		p, err := memserver.DialPool(t.Addr, secret, memserver.PoolConfig{Size: max(t.Lanes, 1), Resilience: res})
		if err != nil {
			return nil, err
		}
		return p, nil
	default:
		c, err := dial(t.Addr)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}
