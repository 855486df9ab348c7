package cluster

import (
	"math/bits"

	"oasis/internal/host"
	"oasis/internal/units"
)

// The incremental consolidation planner's free-capacity index.
//
// The scan planner answers "which consolidation hosts fit this VM?" by
// walking every consolidation host on every single placement decision —
// O(VMs × ConsHosts) per tick, the dominant cost of planning at fleet
// scale. The index answers the same question from buckets maintained as
// hosts change: each consolidation host is filed under the bit length
// of its planning headroom avail = Free − reserve (reserve is the
// VacateHeadroom slice, a per-host constant), and a pick walks only the
// buckets that can possibly fit, bucket availBucket(need) and up.
//
// Correctness (the bit-identity argument, DESIGN.md §15): the planner's
// fit test is free[h] − spent[h] − need ≥ reserve, where free[h] is the
// live Free() minus capacity already committed by earlier plans this
// tick. Committed and spent are nonnegative, so any fitting host has
// avail = Free − reserve ≥ need, hence bits.Len64(avail) ≥
// bits.Len64(need): the skipped buckets cannot contain a fitting host.
// Every surviving candidate is then re-checked with the scan planner's
// exact arithmetic, so the candidate *set* handed to the placement
// strategy equals the scan planner's set. The strategies are
// order-independent and draw the RNG identically for equal candidate
// sets (see placement's property tests), so every placement decision —
// and therefore the whole simulation — is bit-identical. The index can
// serve picks mid-plan because no host mutates during planning:
// executeVacate defers its moves through Sim.After.
//
// The same change feed maintains the planner's other standing question,
// "which home hosts are worth looking at?": vacatable[i] tracks
// Powered-with-VMs membership for home host i, replacing the per-tick
// scan over all home hosts with a dense membership walk.

// capBuckets spans bits.Len64's range (0..64).
const capBuckets = 65

// capIndex is the live free-capacity index over one cluster's hosts.
// It is single-threaded, like the cluster it belongs to.
type capIndex struct {
	homeN int

	// buckets[b] lists cons hosts (as ID − homeN) whose availBucket is
	// b. Order within a bucket is maintenance-history order — harmless,
	// since placement strategies are order-independent.
	buckets [capBuckets][]int
	// bucket[i] and pos[i] locate cons host i in buckets for O(1)
	// swap-removal.
	bucket []int
	pos    []int
	// reserve[i] is cons host i's planning headroom floor
	// (VacateHeadroom × Usable), fixed for the run.
	reserve []units.Bytes
	// top is the highest bucket any host can ever be filed under (that
	// of an empty host), so a pick need not walk the empty ones above.
	top int

	// vacatable[i] reports home host i is powered with resident VMs —
	// the standing precondition of planVacate's candidate loop.
	vacatable []bool
}

// availBucket files a headroom (or a need) by bit length; zero and
// negative land in bucket 0.
func availBucket(b units.Bytes) int {
	if b <= 0 {
		return 0
	}
	return bits.Len64(uint64(b))
}

// newCapIndex builds the index from the cluster's current state and
// subscribes to every host's change feed. Call after New has finished
// initial placement and the initial consolidation-host suspends.
func newCapIndex(c *Cluster) *capIndex {
	x := &capIndex{
		homeN:     c.Cfg.HomeHosts,
		bucket:    make([]int, c.Cfg.ConsHosts),
		pos:       make([]int, c.Cfg.ConsHosts),
		reserve:   make([]units.Bytes, c.Cfg.ConsHosts),
		vacatable: make([]bool, c.Cfg.HomeHosts),
	}
	for i, h := range c.consHosts() {
		x.reserve[i] = units.Bytes(c.Cfg.VacateHeadroom * float64(h.Usable()))
		x.top = max(x.top, availBucket(h.Usable()-x.reserve[i]))
		b := availBucket(h.Free() - x.reserve[i])
		x.bucket[i] = b
		x.pos[i] = len(x.buckets[b])
		x.buckets[b] = append(x.buckets[b], i)
	}
	for i, h := range c.homeHosts() {
		x.vacatable[i] = h.Powered() && h.NumVMs() > 0
	}
	for _, h := range c.Hosts {
		h.SetOnChange(x.hostChanged)
	}
	return x
}

// hostChanged is the O(1) change-feed callback: re-derive the host's
// index entry from its live state.
func (x *capIndex) hostChanged(h *host.Host) {
	if h.ID < x.homeN {
		x.vacatable[h.ID] = h.Powered() && h.NumVMs() > 0
		return
	}
	i := h.ID - x.homeN
	if i >= len(x.bucket) {
		return // not a host this index covers (defensive)
	}
	b := availBucket(h.Free() - x.reserve[i])
	if b == x.bucket[i] {
		return
	}
	// Swap-remove from the old bucket, append to the new.
	old := x.buckets[x.bucket[i]]
	last := old[len(old)-1]
	old[x.pos[i]] = last
	x.pos[last] = x.pos[i]
	x.buckets[x.bucket[i]] = old[:len(old)-1]

	x.bucket[i] = b
	x.pos[i] = len(x.buckets[b])
	x.buckets[b] = append(x.buckets[b], i)
}

// PlannerStats counts the consolidation planner's work. Deliberately
// outside Stats: the digest fingerprint must be bit-identical between
// the scan and indexed planners, and their work differs by design —
// that difference is exactly what the cluster bench measures.
type PlannerStats struct {
	// Picks counts pickConsHost decisions.
	Picks int64
	// Candidates counts consolidation hosts examined across all picks
	// (the scan planner examines every cons host on every pick; the
	// indexed planner examines only plausible buckets).
	Candidates int64
}
