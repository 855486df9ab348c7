// Package shard implements the sharded, replicated memory-server fabric:
// a deterministic consistent-hash ring places every VM page range on R of
// N backend daemons, and Client fans the existing page/upload operations
// out per shard over per-backend connection pools (§4.2's single memory
// server, scaled horizontally).
//
// Placement is keyed by (VMID, PFN-range), not by individual page: all
// pages of one RangePages-sized aligned range land on the same replica
// set, so a contiguous prefetch batch or upload chunk touches one shard
// instead of scattering across the rack. Writes go to every replica
// (strict — the uploader holds the authoritative image, so degradation
// beats silent under-replication); reads try the replicas in ring order
// and fail over when a backend's circuit breaker is open or a fetch
// fails, which is what lets a fabric ride out a killed shard with zero
// failed page reads.
package shard

import (
	"fmt"
	"slices"
	"sort"

	"oasis/internal/pagestore"
)

// DefaultRangePages is the placement-unit size: 1024 pages (4 MiB) keeps
// a prefetch round or upload chunk on one shard while still spreading a
// multi-GiB image across the whole fabric.
const DefaultRangePages = 1024

// DefaultVnodes is the number of ring points per backend. 64 virtual
// nodes keep the load split within a few percent of even for the small
// fabrics (3-16 backends) a rack runs.
const DefaultVnodes = 64

// DefaultReplicas is the write fan-out when Config.Replicas is unset:
// every page range lives on two backends, so one shard outage never
// strands a partial VM.
const DefaultReplicas = 2

// Ring is a deterministic consistent-hash ring over backend indices.
// It is immutable after construction and safe for concurrent use;
// membership changes derive a new ring (WithBackend/WithoutBackend)
// instead of mutating an existing one, which is what lets the elastic
// client swap rings atomically under in-flight operations.
type Ring struct {
	addrs       []string
	backends    int
	replicas    int // effective (clamped to the backend count)
	reqReplicas int // as requested; re-clamped on membership changes
	rangePages  int64
	vnodes      int
	points      []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend int
}

// NewRing builds a ring over n backends identified by addrs (the ring
// hashes the addresses, so the same fabric membership yields the same
// placement in every process). replicas is clamped to [1, n]; rangePages
// and vnodes take their defaults when <= 0.
func NewRing(addrs []string, replicas, rangePages, vnodes int) (*Ring, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one backend")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	reqReplicas := replicas
	if replicas > len(addrs) {
		replicas = len(addrs)
	}
	if rangePages <= 0 {
		rangePages = DefaultRangePages
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{
		addrs:       append([]string(nil), addrs...),
		backends:    len(addrs),
		replicas:    replicas,
		reqReplicas: reqReplicas,
		rangePages:  int64(rangePages),
		vnodes:      vnodes,
		points:      make([]ringPoint, 0, len(addrs)*vnodes),
	}
	for i, addr := range addrs {
		h := hashString(addr)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{mix64(h ^ uint64(v)*0x9E3779B97F4A7C15), i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r, nil
}

// Replicas returns the effective replica count (clamped to the backend
// count at construction).
func (r *Ring) Replicas() int { return r.replicas }

// RangePages returns the placement-unit size in pages.
func (r *Ring) RangePages() int64 { return r.rangePages }

// Addrs returns the backend addresses the ring was built over, in their
// construction order (backend index i is Addrs()[i]).
func (r *Ring) Addrs() []string { return append([]string(nil), r.addrs...) }

// HasBackend reports whether addr is a member of the ring.
func (r *Ring) HasBackend(addr string) bool {
	for _, a := range r.addrs {
		if a == addr {
			return true
		}
	}
	return false
}

// WithBackend derives a ring with addr added, keeping the requested
// replica count, range size and vnode count. The replica count may grow
// back toward the requested value if it was clamped by a small fabric.
func (r *Ring) WithBackend(addr string) (*Ring, error) {
	if r.HasBackend(addr) {
		return nil, fmt.Errorf("shard: backend %s already in the ring", addr)
	}
	addrs := append(append(make([]string, 0, len(r.addrs)+1), r.addrs...), addr)
	return NewRing(addrs, r.reqReplicas, int(r.rangePages), r.vnodes)
}

// WithoutBackend derives a ring with addr removed. Removing the last
// backend or a non-member is an error.
func (r *Ring) WithoutBackend(addr string) (*Ring, error) {
	addrs := make([]string, 0, len(r.addrs))
	for _, a := range r.addrs {
		if a != addr {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == len(r.addrs) {
		return nil, fmt.Errorf("shard: backend %s is not in the ring", addr)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: cannot remove the last backend %s", addr)
	}
	return NewRing(addrs, r.reqReplicas, int(r.rangePages), r.vnodes)
}

// OwnerAddrs is Owners resolved to backend addresses. Placement hashes
// only the address strings, so owner addresses are comparable across
// rings and across processes even when the index order differs.
func (r *Ring) OwnerAddrs(id pagestore.VMID, pfn pagestore.PFN) []string {
	owners := r.Owners(id, pfn)
	out := make([]string, len(owners))
	for i, o := range owners {
		out[i] = r.addrs[o]
	}
	return out
}

// Fingerprint is a deterministic digest of the ring's placement: the
// sorted point sequence (by address, so index permutations cancel out)
// folded with the geometry. Two rings with the same membership,
// replicas, range size and vnodes fingerprint identically in any
// process; any membership change alters it.
func (r *Ring) Fingerprint() uint64 {
	h := mix64(uint64(r.replicas)<<32 ^ uint64(r.rangePages))
	for _, p := range r.points {
		h = mix64(h ^ p.hash ^ hashString(r.addrs[p.backend]))
	}
	return h
}

// Owners returns the backend indices holding the page, primary first,
// then the failover replicas in ring order. The slice is freshly
// allocated; all pages in the same RangePages-aligned range of the same
// VM get the same owners.
func (r *Ring) Owners(id pagestore.VMID, pfn pagestore.PFN) []int {
	owners := make([]int, 0, r.replicas)
	key := mix64(uint64(id)*0xD6E8FEB86659FD93 ^ uint64(int64(pfn)/r.rangePages))
	// First point clockwise of the key; wrap at the end of the circle.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for n := 0; n < len(r.points) && len(owners) < r.replicas; n++ {
		if b := r.points[(i+n)%len(r.points)].backend; !slices.Contains(owners, b) {
			owners = append(owners, b)
		}
	}
	return owners
}

// hashString is FNV-1a, finished with a mixer so nearby addresses
// ("…:7070" vs "…:7071") land far apart on the circle.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
