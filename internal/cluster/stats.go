package cluster

import (
	"fmt"
	"strings"

	"oasis/internal/metrics"
	"oasis/internal/units"
)

// Op is a kind of migration operation the manager counts.
type Op int

// The operation kinds, in the order of their names, so that Ops renders
// sorted by name.
const (
	OpConsWake         Op = iota // a consolidation host woken for a vacate
	OpConvertInPlace             // a partial VM made full on its consolidation host
	OpFullExchange               // an idle full VM moved home to go back partial
	OpFullNewHome                // an activating partial VM moved in full to another host
	OpFullReturn                 // a VM returned in full to its woken home
	OpFullVacate                 // a VM moved in full off a home being vacated
	OpHomeWake                   // a home woken to take its VMs back
	OpHomeWakeExchange           // a home woken to exchange its idle full VMs
	OpPartialDiff                // a partial migration uploading only a diff
	OpPartialFirst               // a partial migration uploading a whole image
	OpReintegrate                // a partial VM reintegrated into its home
	numOps
)

var opNames = [numOps]string{
	"cons-wake", "convert-in-place", "full-exchange", "full-newhome", "full-return", "full-vacate",
	"home-wake", "home-wake-exchange", "partial-diff", "partial-first", "reintegrate",
}

// String returns the kind's name, as Digest and telemetry label it.
func (k Op) String() string { return opNames[k] }

// Ops counts migration operations, indexed by kind.
type Ops [numOps]int64

// String renders the kinds that occurred as name=count, sorted by name.
func (o Ops) String() string {
	var b strings.Builder
	for k, n := range o {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", Op(k), n)
	}
	return b.String()
}

// Stats accumulates the measurements the evaluation reports: network
// traffic by category (Figure 10), idle→active transition delays
// (Figure 11), consolidation ratios (Figure 9), and operation counts.
type Stats struct {
	// Network traffic (bytes on the datacenter network).
	FullBytes        units.Bytes // full migrations: vacates, returns, exchanges
	ConvertBytes     units.Bytes // partial→full in-place conversions (remaining state)
	DescriptorBytes  units.Bytes // partial-migration descriptor pushes
	OnDemandBytes    units.Bytes // page faults served to partial VMs
	ReintegrateBytes units.Bytes // dirty state pushed back on reintegration

	// SASBytes is written over host-local SAS links to memory servers;
	// by design it never reaches the network (§4.3).
	SASBytes units.Bytes

	// Ops counts migration operations by kind.
	Ops Ops

	// Transition-delay accounting (Figure 11): transitions of full VMs
	// are zero-latency; partial-VM transitions sample the reintegration
	// delay including NIC queueing.
	ZeroTransitions int64
	DelaySample     metrics.Sample // seconds, non-zero transitions only

	// ConsRatio samples the number of VMs per powered consolidation host
	// at every planning interval (Figure 9).
	ConsRatio metrics.Sample

	// Exhaustions counts consolidation-host capacity exhaustion events.
	Exhaustions int64

	// Fault-injection accounting (Config.MemServerMTBF > 0): outages of
	// serving memory servers, partial VMs stranded degraded by them, the
	// forced promotions that recovered those VMs, and the recovery
	// latency each degraded VM saw (seconds; a reintegration off the
	// consolidation host's DRAM).
	MemServerOutages int64
	DegradedVMs      int64
	ForcedPromotions int64
	OutageRecovery   metrics.Sample
}

// UnavailableVMSeconds returns the total VM-seconds of unavailability
// the injected memory-server outages caused: each degraded VM is
// unavailable for its forced-promotion recovery latency.
func (s *Stats) UnavailableVMSeconds() float64 {
	return s.OutageRecovery.Mean() * float64(s.OutageRecovery.N())
}

// Availability returns the fraction of aggregate VM-time that was NOT
// lost to memory-server outages, over a run of the given duration and VM
// count. Without fault injection it is 1.
func (s *Stats) Availability(vms int, runSeconds float64) float64 {
	total := float64(vms) * runSeconds
	if total <= 0 {
		return 1
	}
	a := 1 - s.UnavailableVMSeconds()/total
	if a < 0 {
		return 0
	}
	return a
}

// NetworkBytes returns total datacenter network traffic.
func (s *Stats) NetworkBytes() units.Bytes {
	return s.FullBytes + s.ConvertBytes + s.DescriptorBytes + s.OnDemandBytes + s.ReintegrateBytes
}

// Transitions returns the total number of idle→active transitions seen.
func (s *Stats) Transitions() int64 {
	return s.ZeroTransitions + int64(s.DelaySample.N())
}

// ZeroDelayFraction returns the fraction of idle→active transitions with
// zero user-perceived latency (the VM was full).
func (s *Stats) ZeroDelayFraction() float64 {
	total := s.Transitions()
	if total == 0 {
		return 0
	}
	return float64(s.ZeroTransitions) / float64(total)
}

// DelayPercentile returns the p-th percentile of the *overall* transition
// delay distribution, counting zero-latency transitions as zeros.
func (s *Stats) DelayPercentile(p float64) float64 {
	total := float64(s.Transitions())
	if total == 0 {
		return 0
	}
	zeroFrac := float64(s.ZeroTransitions) / total
	if p/100 <= zeroFrac {
		return 0
	}
	// Map the overall percentile into the non-zero sample.
	rest := (p/100 - zeroFrac) / (1 - zeroFrac) * 100
	return s.DelaySample.Percentile(rest)
}
