package oasis

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"time"

	"oasis/internal/flagbind"
	"oasis/internal/memserver"
	"oasis/internal/memserver/shard"
	"oasis/internal/network"
)

// MemConn is the full memory-server client surface: page reads (plain
// and staged), image/diff uploads (one-shot and streamed), lifecycle and
// counters. Dial returns a MemConn whatever transport shape the options
// select — a bare connection, a resilient pool of one or more, or a
// sharded replicated fabric — so one call site scales from a laptop
// test to a rack purely through options.
type MemConn = memserver.Conn

// Transport is the unified page-transport configuration every Oasis
// program shares: connection-pool width, prefetch/upload parallelism,
// and the shard-fabric backend list. The daemons bind it to their flag
// sets with BindTransportFlags, the agent consumes it as its transport
// config, and WithTransport applies its connection-shaping fields to a
// Dial.
type Transport = flagbind.Transport

// BindTransportFlags registers the shared page-transport flags (-pool,
// -prefetch-streams, -upload-streams, -backends, -replicas) on fs,
// storing parsed values into t. Current field values of t become the
// flag defaults. oasis-agentd, memtapctl and oasis-sim all parse their
// transport knobs through this one binding.
func BindTransportFlags(fs *flag.FlagSet, t *Transport) { flagbind.BindTransport(fs, t) }

// ShardClient is the sharded, replicated memory-server fabric client:
// a consistent-hash ring over N backends keyed by (VMID, page range),
// R-way replicated writes, and per-range read failover. Dial returns
// one (as a MemConn) when WithBackends selects a fabric; DialShard
// returns the concrete type for callers that need ring introspection.
type ShardClient = shard.Client

// ShardConfig tunes a shard fabric: replication factor, placement
// range size, ring geometry, per-backend pooling. The zero value gives
// 2-way replication over 4-MiB ranges with default pools.
type ShardConfig = shard.Config

// DialShard connects a sharded fabric client to the backends. Most
// callers want Dial with WithBackends instead; this entry point exposes
// the concrete client for ring/placement introspection.
func DialShard(backends []string, secret []byte, cfg ShardConfig) (*ShardClient, error) {
	return shard.Dial(backends, secret, cfg)
}

// DialOption configures Dial; see WithTimeout, WithResilience,
// WithPool, WithTLS, WithBackends, WithReplicas, WithTransport.
type DialOption func(*shard.Target)

// WithTimeout bounds the initial dial (and, on the resilient shapes,
// every reconnect attempt). Zero keeps the 5-second default.
func WithTimeout(d time.Duration) DialOption {
	return func(t *shard.Target) { t.DialTimeout = d }
}

// WithResilience selects the self-healing client — reconnect, bounded
// retries, circuit breaker — tuned by cfg; the zero ResilienceConfig
// selects defaults. Pooled and sharded shapes inherit cfg for every
// connection they manage.
func WithResilience(cfg ResilienceConfig) DialOption {
	return func(t *shard.Target) { t.Resilience = &cfg }
}

// WithPool fans requests across size pooled resilient connections
// (size <= 0 selects the default of 4). Implies WithResilience.
func WithPool(size int) DialOption {
	return func(t *shard.Target) {
		if size <= 0 {
			size = memserver.DefaultPoolSize
		}
		t.Lanes = size
	}
}

// WithTLS dials over TLS, verifying the server against roots (§4.3
// "Security"); the shared-secret challenge still runs inside the TLS
// session. Applies to every connection of whatever shape the other
// options select.
func WithTLS(roots *x509.CertPool) DialOption {
	return func(t *shard.Target) { t.Network = network.TLS(network.TCP, tls.Certificate{}, roots) }
}

// WithBackends selects the sharded fabric: pages place onto these
// backends by consistent hashing and writes replicate (see
// WithReplicas). The addr argument of Dial is ignored — the fabric is
// exactly this list; pass "" for clarity. Implies WithResilience.
func WithBackends(addrs ...string) DialOption {
	return func(t *shard.Target) { t.Backends = append([]string(nil), addrs...) }
}

// WithReplicas sets the fabric's replication factor (writes must reach
// every replica; reads fail over between them). Only meaningful with
// WithBackends; <= 0 keeps the default of 2, values above the backend
// count are clamped.
func WithReplicas(n int) DialOption {
	return func(t *shard.Target) { t.Replicas = n }
}

// WithTransport applies a Transport's connection-shaping fields —
// PoolSize, Backends, Replicas — to the dial, so a daemon can hand its
// flag-bound transport straight to Dial. The fields follow the
// Transport contract exactly: PoolSize >= 1 selects that many resilient
// connections (zero leaves the shape to the other options), Backends
// selects the sharded fabric with PoolSize as the per-backend pool
// width, and Replicas <= 0 takes the fabric default. PrefetchStreams
// (itself ignored everywhere now) and UploadStreams shape the
// memtap/agent pipelines, not the connection, and are ignored here.
func WithTransport(tr Transport) DialOption {
	return func(t *shard.Target) {
		if tr.Sharded() {
			t.Backends = append([]string(nil), tr.Backends...)
		}
		if tr.PoolSize > 0 {
			t.Lanes = tr.PoolSize
		}
		if tr.Replicas > 0 {
			t.Replicas = tr.Replicas
		}
	}
}

// Dial connects to the memory-server tier and returns the client shape
// the options select, behind the one MemConn surface:
//
//   - no options: one authenticated connection (a *MemClient);
//   - WithResilience and/or WithPool: a pool of self-healing connections
//     (*MemClientPool) — one lane unless WithPool says more;
//   - WithBackends: a sharded replicated fabric (*ShardClient) — addr
//     is ignored, the backend list is the fabric.
//
// WithTLS and WithTimeout shape the underlying connections of any of
// the three.
func Dial(addr string, secret []byte, opts ...DialOption) (MemConn, error) {
	t := shard.Target{Addr: addr}
	for _, o := range opts {
		o(&t)
	}
	if t.Lanes > 0 && t.Resilience == nil {
		t.Resilience = &ResilienceConfig{}
	}
	return shard.Connect(t, secret)
}
