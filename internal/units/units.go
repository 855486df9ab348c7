// Package units provides byte-size and bandwidth types shared across the
// Oasis codebase. All memory accounting in the system is done in these
// units so that capacity checks, transfer-time models and reports agree.
package units

import (
	"fmt"
	"time"
)

// Bytes is a size in bytes. It is signed so that deltas (for example the
// change in a host's free memory) can be expressed directly.
type Bytes int64

// Common sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40

	// PageSize is the guest page granularity used throughout the system,
	// matching the x86 4 KiB page the paper's Xen prototype operates on.
	PageSize Bytes = 4 * KiB

	// ChunkSize is the granularity at which the hypervisor allocates
	// frames for partial VMs (2 MiB chunks, §4.2) to limit heap
	// fragmentation.
	ChunkSize Bytes = 2 * MiB
)

// Pages returns the number of pages needed to hold b bytes, rounding up.
func (b Bytes) Pages() int64 {
	if b <= 0 {
		return 0
	}
	return int64((b + PageSize - 1) / PageSize)
}

// PagesBytes returns the size of n pages.
func PagesBytes(n int64) Bytes { return Bytes(n) * PageSize }

// FromMiB converts a fractional MiB count to Bytes.
func FromMiB(f float64) Bytes { return Bytes(f * float64(MiB)) }

// GiBf returns the size expressed in GiB as a float.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// String renders a human-readable size (e.g. "165.6 MiB").
func (b Bytes) String() string {
	neg := ""
	v := b
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= TiB:
		return fmt.Sprintf("%s%.1f TiB", neg, float64(v)/float64(TiB))
	case v >= GiB:
		return fmt.Sprintf("%s%.1f GiB", neg, float64(v)/float64(GiB))
	case v >= MiB:
		return fmt.Sprintf("%s%.1f MiB", neg, float64(v)/float64(MiB))
	case v >= KiB:
		return fmt.Sprintf("%s%.1f KiB", neg, float64(v)/float64(KiB))
	default:
		return fmt.Sprintf("%s%d B", neg, int64(v))
	}
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth int64

// Common link and device rates used by the models.
const (
	// GigE is the usable throughput of a 1 GigE NIC (~117 MiB/s on the
	// wire; we use the nominal 1 Gb/s divided by 8).
	GigE Bandwidth = 125_000_000
	// TenGigE is a 10 GigE link.
	TenGigE Bandwidth = 1_250_000_000
	// SASWrite is the sequential write throughput the prototype's shared
	// SAS drive sustained (§4.3: 128 MiB/s).
	SASWrite Bandwidth = Bandwidth(128 * MiB)
)

// MiBps returns the bandwidth in MiB per second.
func (bw Bandwidth) MiBps() float64 { return float64(bw) / float64(MiB) }

// String renders a human-readable rate.
func (bw Bandwidth) String() string {
	return fmt.Sprintf("%.1f MiB/s", bw.MiBps())
}

// TransferTime returns how long moving b bytes at rate bw takes. A zero or
// negative bandwidth yields zero time (treated as instantaneous), which
// keeps degenerate configurations from dividing by zero.
func TransferTime(b Bytes, bw Bandwidth) time.Duration {
	if bw <= 0 || b <= 0 {
		return 0
	}
	sec := float64(b) / float64(bw)
	return time.Duration(sec * float64(time.Second))
}
