package shard

import (
	"time"

	"oasis/internal/memserver"
	"oasis/internal/network"
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
	// Resilience tunes the self-healing connections (reconnect, bounded
	// retries, circuit breaker) every shape is made of; nil takes the
	// defaults.
	Resilience *memserver.ResilientConfig
	// Lanes is the connections per server: on a single server <= 1 is
	// one lane, on a fabric <= 0 takes memserver.DefaultPoolSize.
	Lanes int
	// Network, when non-nil, carries every connection in place of
	// Resilience.Network (nil there too: network.TCP). network.TLS is
	// how a caller asks for §4.3's encrypted link; the shared-secret
	// challenge still runs inside the session.
	Network network.Network
	// DialTimeout bounds every (re)connect. Zero takes
	// Resilience.DialTimeout, else memserver.DefaultDialTimeout.
	DialTimeout time.Duration
}

// Connect dials t and returns the client shape it calls for: a
// *shard.Client for a fabric, else a *memserver.ClientPool of Lanes
// lanes (at least one) to the single server. Every layer that
// opens a memory-server connection on a user's behalf (the facade's
// Dial, memtap, the host agent) comes through here, so the network,
// timeouts and resilience apply to every connection of whichever shape
// results.
func Connect(t Target, secret []byte) (memserver.Conn, error) {
	var res memserver.ResilientConfig
	if t.Resilience != nil {
		res = *t.Resilience
	}
	if t.DialTimeout > 0 {
		res.DialTimeout = t.DialTimeout
	}
	if t.Network != nil {
		res.Network = t.Network
	}
	if len(t.Backends) > 0 {
		f, err := Dial(t.Backends, secret, Config{
			Replicas: t.Replicas,
			Pool:     memserver.PoolConfig{Size: t.Lanes, Resilience: res},
		})
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	p, err := memserver.DialPool(t.Addr, secret, memserver.PoolConfig{Size: max(t.Lanes, 1), Resilience: res})
	if err != nil {
		return nil, err
	}
	return p, nil
}
