package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"oasis/internal/metrics"
)

// Deterministic run digests. The parallel fleet simulator proves itself
// against the serial path by comparing digests: every cell (one rack's
// cluster) reduces its run to a StatsDigest, and the fleet result is the
// digest merge in fixed cell order. Two rules make that proof exact
// rather than "close enough":
//
//   - Fixed point everywhere float order could matter. Each float sample
//     is rounded to integer micro-units at the moment it enters the
//     digest; from then on everything is int64 addition, which is
//     associative — merging per-cell digests in any grouping gives the
//     same totals as one serial accumulation.
//   - Canonical encoding. Fingerprint hashes the fields in a fixed
//     order (map keys sorted), so equal digests hash equal regardless
//     of how they were built.

// microsOf converts a float64 quantity to integer micro-units,
// round-half-away-from-zero.
func microsOf(x float64) int64 {
	return int64(math.Round(x * 1e6))
}

// SampleDigest is the fixed-point summary of one metrics.Sample: enough
// to compare distributions across runs (count, integer sum, max, and a
// log2-bucket histogram) without retaining the samples.
type SampleDigest struct {
	Count     int64 `json:"count"`
	SumMicros int64 `json:"sum_micros"`
	MaxMicros int64 `json:"max_micros"`
	// Buckets[i] counts samples whose micro-unit value has bit length i
	// (bucket 0 holds zeros and negatives).
	Buckets [64]int64 `json:"-"`
}

// addSample folds a metrics.Sample into the digest. It reads the
// observations in place: integer sums, a max and counts do not depend
// on their order.
func (d *SampleDigest) addSample(s *metrics.Sample) {
	for _, x := range s.Raw() {
		m := microsOf(x)
		d.Count++
		d.SumMicros += m
		if m > d.MaxMicros {
			d.MaxMicros = m
		}
		d.Buckets[bucketOf(m)]++
	}
}

func bucketOf(m int64) int {
	if m <= 0 {
		return 0
	}
	b := 0
	for m > 0 {
		m >>= 1
		b++
	}
	return b
}

// merge folds other into d (int64 addition throughout: associative).
func (d *SampleDigest) merge(o SampleDigest) {
	d.Count += o.Count
	d.SumMicros += o.SumMicros
	if o.MaxMicros > d.MaxMicros {
		d.MaxMicros = o.MaxMicros
	}
	for i := range d.Buckets {
		d.Buckets[i] += o.Buckets[i]
	}
}

// StatsDigest is the canonical, mergeable, fixed-point reduction of one
// cluster run (or a merge of many): the quantity the fleet's
// serial-vs-parallel bit-identity proof compares.
type StatsDigest struct {
	// Byte counters are already integers in Stats.
	FullBytes        int64 `json:"full_bytes"`
	ConvertBytes     int64 `json:"convert_bytes"`
	DescriptorBytes  int64 `json:"descriptor_bytes"`
	OnDemandBytes    int64 `json:"on_demand_bytes"`
	ReintegrateBytes int64 `json:"reintegrate_bytes"`
	SASBytes         int64 `json:"sas_bytes"`

	Ops map[string]int64 `json:"ops"`

	ZeroTransitions  int64 `json:"zero_transitions"`
	Exhaustions      int64 `json:"exhaustions"`
	MemServerOutages int64 `json:"memserver_outages"`
	DegradedVMs      int64 `json:"degraded_vms"`
	ForcedPromotions int64 `json:"forced_promotions"`

	Delay          SampleDigest `json:"delay"`
	ConsRatio      SampleDigest `json:"cons_ratio"`
	OutageRecovery SampleDigest `json:"outage_recovery"`

	// Energy in integer micro-joules (each cell's meter reading is
	// rounded once, then summed).
	EnergyMicroJ     int64 `json:"energy_microj"`
	HomeEnergyMicroJ int64 `json:"home_energy_microj"`

	// Host power-state transition totals.
	Suspends int64 `json:"suspends"`
	Resumes  int64 `json:"resumes"`

	// SimEvents totals processed discrete events; SimFingerprint XORs
	// the per-cell simtime fingerprints (XOR commutes, so the merge is
	// order-independent).
	SimEvents      int64  `json:"sim_events"`
	SimFingerprint uint64 `json:"sim_fingerprint"`

	// Cells counts the cluster runs merged into this digest.
	Cells int64 `json:"cells"`
}

// Digest reduces the cluster's current state to a StatsDigest.
func (c *Cluster) Digest() StatsDigest {
	s := &c.Stats
	d := StatsDigest{
		FullBytes:        int64(s.FullBytes),
		ConvertBytes:     int64(s.ConvertBytes),
		DescriptorBytes:  int64(s.DescriptorBytes),
		OnDemandBytes:    int64(s.OnDemandBytes),
		ReintegrateBytes: int64(s.ReintegrateBytes),
		SASBytes:         int64(s.SASBytes),
		Ops:              make(map[string]int64, len(s.Ops)),
		ZeroTransitions:  s.ZeroTransitions,
		Exhaustions:      s.Exhaustions,
		MemServerOutages: s.MemServerOutages,
		DegradedVMs:      s.DegradedVMs,
		ForcedPromotions: s.ForcedPromotions,
		EnergyMicroJ:     microsOf(c.TotalEnergyJoules()),
		HomeEnergyMicroJ: microsOf(c.HomeHostEnergyJoules()),
		SimEvents:        int64(c.Sim.Processed),
		SimFingerprint:   c.Sim.Fingerprint(),
		Cells:            1,
	}
	for kind, n := range s.Ops {
		d.Ops[kind] = n
	}
	d.Delay.addSample(&s.DelaySample)
	d.ConsRatio.addSample(&s.ConsRatio)
	d.OutageRecovery.addSample(&s.OutageRecovery)
	for _, h := range c.Hosts {
		d.Suspends += int64(h.Suspends)
		d.Resumes += int64(h.Resumes)
	}
	return d
}

// Merge folds other into d. All fields merge by int64 addition, max, or
// XOR, so any merge order and grouping produces identical totals.
func (d *StatsDigest) Merge(o StatsDigest) {
	d.FullBytes += o.FullBytes
	d.ConvertBytes += o.ConvertBytes
	d.DescriptorBytes += o.DescriptorBytes
	d.OnDemandBytes += o.OnDemandBytes
	d.ReintegrateBytes += o.ReintegrateBytes
	d.SASBytes += o.SASBytes
	if d.Ops == nil {
		d.Ops = make(map[string]int64, len(o.Ops))
	}
	for kind, n := range o.Ops {
		d.Ops[kind] += n
	}
	d.ZeroTransitions += o.ZeroTransitions
	d.Exhaustions += o.Exhaustions
	d.MemServerOutages += o.MemServerOutages
	d.DegradedVMs += o.DegradedVMs
	d.ForcedPromotions += o.ForcedPromotions
	d.Delay.merge(o.Delay)
	d.ConsRatio.merge(o.ConsRatio)
	d.OutageRecovery.merge(o.OutageRecovery)
	d.EnergyMicroJ += o.EnergyMicroJ
	d.HomeEnergyMicroJ += o.HomeEnergyMicroJ
	d.Suspends += o.Suspends
	d.Resumes += o.Resumes
	d.SimEvents += o.SimEvents
	d.SimFingerprint ^= o.SimFingerprint
	d.Cells += o.Cells
}

// Fingerprint hashes the digest's canonical encoding (fields in fixed
// order, map keys sorted) with FNV-1a. Equal digests fingerprint equal
// regardless of construction order; this single uint64 is what the
// serial-vs-parallel identity check compares and what the bench
// artifact records.
func (d *StatsDigest) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(d.FullBytes)
	put(d.ConvertBytes)
	put(d.DescriptorBytes)
	put(d.OnDemandBytes)
	put(d.ReintegrateBytes)
	put(d.SASBytes)
	kinds := make([]string, 0, len(d.Ops))
	for kind := range d.Ops {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		h.Write([]byte(kind))
		put(d.Ops[kind])
	}
	put(d.ZeroTransitions)
	put(d.Exhaustions)
	put(d.MemServerOutages)
	put(d.DegradedVMs)
	put(d.ForcedPromotions)
	for _, sd := range []*SampleDigest{&d.Delay, &d.ConsRatio, &d.OutageRecovery} {
		put(sd.Count)
		put(sd.SumMicros)
		put(sd.MaxMicros)
		for _, b := range sd.Buckets {
			put(b)
		}
	}
	put(d.EnergyMicroJ)
	put(d.HomeEnergyMicroJ)
	put(d.Suspends)
	put(d.Resumes)
	put(d.SimEvents)
	put(int64(d.SimFingerprint))
	put(d.Cells)
	return h.Sum64()
}
