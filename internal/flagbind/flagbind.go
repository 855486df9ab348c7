// Package flagbind is the single definition of the page-transport
// tuning surface and its command-line binding. Before it existed,
// oasis-agentd, memtapctl and oasis-sim each hand-rolled the same
// -pool/-prefetch-streams/-upload-streams parsing and the knobs drifted
// per binary; now every daemon binds the one Transport struct and the
// agent, memtap and facade consume it directly.
package flagbind

import (
	"flag"
	"fmt"
	"strings"
)

// Transport is the unified tuning of the page-transport layer: how many
// connections a memtap pools, how wide detach uploads fan out, and — for
// sharded deployments — the memory-server fabric membership and replica
// count. The zero value is one connection to a single server.
type Transport struct {
	// PoolSize is the pooled memory-server connections per client
	// (<= 1 keeps a single resilient connection).
	PoolSize int
	// PrefetchStreams is parsed and ignored, so that existing command
	// lines still run: a memtap keeps a conversion batch in flight per
	// pooled connection and a second per connection where a CPU is free.
	PrefetchStreams int
	// UploadStreams is the detach path's chunked upload streams to each
	// remote memory server; an unsharded agent installs host-locally
	// (<= 1 is serial).
	UploadStreams int
	// Backends, when non-empty, shards page placement over these
	// memory-server addresses (a consistent-hash fabric) instead of one
	// server.
	Backends []string
	// Replicas is how many fabric backends each page range is written
	// to (<= 0 takes the fabric default; ignored without Backends).
	Replicas int
}

// Sharded reports whether the transport addresses a multi-backend
// fabric rather than a single memory server.
func (t *Transport) Sharded() bool { return len(t.Backends) > 0 }

// BindTransport registers the canonical transport flags on fs, storing
// into t. Callers that already parsed defaults into t keep them: the
// flag defaults are t's current values.
func BindTransport(fs *flag.FlagSet, t *Transport) {
	fs.IntVar(&t.PoolSize, "pool", t.PoolSize,
		"pooled memory-server connections per memtap (<=1 keeps the serial client)")
	fs.IntVar(&t.PrefetchStreams, "prefetch-streams", t.PrefetchStreams,
		"ignored: a conversion keeps a batch in flight per -pool connection, and a second per connection where a CPU is free")
	fs.IntVar(&t.UploadStreams, "upload-streams", t.UploadStreams,
		"chunked upload streams per remote memory server for detach uploads; an unsharded agent installs host-locally (<=1 is serial)")
	fs.Var((*addrList)(&t.Backends), "backends",
		"comma-separated memory-server fabric addresses; empty keeps the single-server transport")
	fs.IntVar(&t.Replicas, "replicas", t.Replicas,
		"fabric backends each page range is replicated to (<=0 uses the fabric default; needs -backends)")
}

// addrList is the flag.Value for a comma-separated address list.
// Repeating the flag appends; whitespace around entries is trimmed.
type addrList []string

func (l *addrList) String() string {
	if l == nil {
		return ""
	}
	return strings.Join(*l, ",")
}

func (l *addrList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		*l = append(*l, part)
	}
	if len(*l) == 0 {
		return fmt.Errorf("empty address list")
	}
	return nil
}
