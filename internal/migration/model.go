// Package migration provides the latency and traffic models for the four
// operations hybrid consolidation performs: pre-copy full live migration,
// first-time partial migration (memory upload + descriptor push),
// repeat partial migration with differential upload, and reintegration of
// a partial VM into its home.
//
// Two calibrations exist. MicroBenchModel reproduces the §4.4 testbed
// (1 GigE network, 128 MiB/s SAS writes) whose measured latencies are
// Figure 5; ClusterModel reproduces the §5.1 simulation parameters
// (10 GigE top-of-rack switch, full migration of a 4 GiB VM in 10 s, the
// conservative 7.2 s / 3.7 s partial constants).
package migration

import (
	"time"

	"oasis/internal/units"
	"oasis/internal/workload"
)

// Kind labels a migration operation.
type Kind int

// Operation kinds.
const (
	Full Kind = iota
	PartialFirst
	PartialDiff
	Reintegrate
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Full:
		return "full"
	case PartialFirst:
		return "partial-first"
	case PartialDiff:
		return "partial-diff"
	case Reintegrate:
		return "reintegrate"
	default:
		return "unknown"
	}
}

// Op is the outcome of one modelled migration: how long it takes, what it
// puts on the datacenter network, and what it writes over the host-local
// SAS link to the memory server (which by design does not touch the
// network, §4.3).
type Op struct {
	Kind     Kind
	Latency  time.Duration
	NetBytes units.Bytes
	SASBytes units.Bytes
}

// Model holds the calibrated parameters.
type Model struct {
	// Net is the host-to-host link; NetEfficiency derates it for
	// protocol overhead and contention.
	Net           units.Bandwidth
	NetEfficiency float64
	// SAS is the host→memory-server write path.
	SAS units.Bandwidth
	// CompressionRatio is the effective per-page compression on memory
	// images (zero pages collapse, code pages compress ~2x; the paper's
	// measured uploads imply ~3.1x across a 4 GiB desktop image).
	CompressionRatio float64
	// DescriptorOverhead is the fixed cost of pushing a VM descriptor and
	// instantiating the partial VM at the destination, beyond wire time.
	DescriptorOverhead time.Duration
	// PrecopyDirtyFactor inflates pre-copy full migration of an *active*
	// VM: later iterations re-send pages dirtied during earlier ones.
	PrecopyDirtyFactor float64
	// ReintegrateOverhead covers suspending the partial VM, waking the
	// home (S3 resume overlaps the transfer), and the final switch-over.
	ReintegrateOverhead time.Duration
	// FaultServiceTime is the per-page cost of an on-demand fetch: fault
	// delivery, network round trip, SAS read and decompression.
	FaultServiceTime time.Duration
}

// MicroBenchModel returns the §4.4 testbed calibration (Figure 5).
func MicroBenchModel() Model {
	return Model{
		Net:                 units.GigE,
		NetEfficiency:       0.838, // ~105 MB/s effective: 4 GiB in 41 s
		SAS:                 units.SASWrite,
		CompressionRatio:    3.1,
		DescriptorOverhead:  5 * time.Second, // descriptor push measured at 5.2 s
		PrecopyDirtyFactor:  0.25,
		ReintegrateOverhead: 2 * time.Second, // 175 MiB + overhead = 3.7 s
		FaultServiceTime:    10200 * time.Microsecond,
	}
}

// ClusterModel returns the §5.1 simulation calibration: a rack with a
// 10 GigE top-of-rack switch where fully migrating a 4 GiB VM takes 10 s
// (after Deshpande et al. [7]).
func ClusterModel() Model {
	m := MicroBenchModel()
	m.Net = units.TenGigE
	// 4 GiB / 10 s = 410 MiB/s effective on a shared 10 GigE rack switch.
	m.NetEfficiency = 0.344
	return m
}

// effectiveNet returns the usable network bandwidth.
func (m Model) effectiveNet() units.Bandwidth {
	return units.Bandwidth(float64(m.Net) * m.NetEfficiency)
}

// compressed returns the post-compression size of a memory region.
func (m Model) compressed(b units.Bytes) units.Bytes {
	if m.CompressionRatio <= 1 {
		return b
	}
	return units.Bytes(float64(b) / m.CompressionRatio)
}

// FullMigration models pre-copy live migration of a VM with the given
// allocation. Active VMs dirty pages during the copy, inflating the
// transferred volume by PrecopyDirtyFactor (§2).
func (m Model) FullMigration(alloc units.Bytes, active bool) Op {
	bytes := alloc
	if active {
		bytes += units.Bytes(float64(alloc) * m.PrecopyDirtyFactor)
	}
	return Op{
		Kind:     Full,
		Latency:  units.TransferTime(bytes, m.effectiveNet()),
		NetBytes: bytes,
	}
}

// PartialMigration models consolidating an idle VM: upload the memory
// image to the memory server over SAS (full image compressed on the first
// consolidation, only pages dirtied since the previous upload afterwards,
// §4.3), then push the descriptor to the consolidation host.
//
// uploadBytes is the uncompressed volume to upload: the VM's whole
// allocation for a first consolidation, or its dirty-since-last-upload
// volume for a differential one. descSize is the descriptor's wire size.
func (m Model) PartialMigration(uploadBytes, descSize units.Bytes, first bool) Op {
	kind := PartialDiff
	if first {
		kind = PartialFirst
	}
	sas := m.compressed(uploadBytes)
	latency := units.TransferTime(sas, m.SAS) +
		units.TransferTime(descSize, m.effectiveNet()) +
		m.DescriptorOverhead
	return Op{
		Kind:     kind,
		Latency:  latency,
		NetBytes: descSize,
		SASBytes: sas,
	}
}

// Reintegration models returning a partial VM to its home: the home
// resumes from S3 (its DRAM kept the pre-consolidation image in
// self-refresh), the consolidation host pushes only the dirty pages, and
// the VM switches over. dirtyBytes is the dirty state to push; the paper
// measured 175.3±49.3 MiB after its desktop workload.
func (m Model) Reintegration(dirtyBytes units.Bytes) Op {
	return Op{
		Kind:     Reintegrate,
		Latency:  units.TransferTime(dirtyBytes, m.effectiveNet()) + m.ReintegrateOverhead,
		NetBytes: dirtyBytes,
	}
}

// OnDemandFetch models the background page traffic of a partial VM that
// stays consolidated for dur: its idle access process touches pages that
// memtap fetches over the network, bounded by the VM's working set (once
// resident, re-touches hit local frames).
func (m Model) OnDemandFetch(rate ClassRate, ws units.Bytes, dur time.Duration) units.Bytes {
	fetched := units.Bytes(float64(rate) * dur.Hours() * float64(units.MiB))
	if fetched > ws {
		fetched = ws
	}
	return fetched
}

// ClassRate is a workload class's calibrated idle access rate: MiB of
// uncompressed pages touched per hour.
type ClassRate float64

// Rates for the three classes (Figure 1).
const (
	DesktopRate ClassRate = 188.2
	WebRate     ClassRate = 37.6
	DBRate      ClassRate = 30.6
)

// AppStartLatency models starting an application (Figure 6): on a full VM
// the warm start cost, on a partial VM one fault round trip per absent
// page the start touches.
func (m Model) AppStartLatency(app workload.App, partial bool) time.Duration {
	if !partial {
		return app.FullStart
	}
	return time.Duration(app.FaultPages) * m.FaultServiceTime
}

// PrefetchAll models bringing a partial VM's entire remaining state to the
// consolidation host over the network — the alternative the paper
// contrasts with on-demand start-up ("pre-fetching all the VM's remaining
// state takes only 41 seconds").
func (m Model) PrefetchAll(alloc units.Bytes) time.Duration {
	return units.TransferTime(alloc, m.effectiveNet())
}
