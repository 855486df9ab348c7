// Package vm defines the virtual machine model the cluster manager and
// simulator operate on: identity, sizing, activity state, and residency
// (full vs. partial, home vs. consolidation host).
package vm

import (
	"fmt"

	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Class is the workload class of a VM, which determines its idle memory
// access behaviour (§2, Figure 1).
type Class int

// Workload classes from the paper's motivation: interactive desktops
// (VDI), and the RUBiS web and database servers.
const (
	Desktop Class = iota
	WebServer
	DBServer
)

// String renders the class name.
func (c Class) String() string {
	switch c {
	case Desktop:
		return "desktop"
	case WebServer:
		return "web"
	case DBServer:
		return "db"
	default:
		return "unknown"
	}
}

// NoHost marks a VM as not placed on any host.
const NoHost = -1

// VM is the manager's view of one virtual machine.
type VM struct {
	ID    pagestore.VMID
	Name  string
	Class Class
	// Alloc is the VM's nominal memory allocation; an active VM requires
	// all of it resident (§3 assumption 3).
	Alloc units.Bytes
	VCPUs int

	// Active reports whether the VM is in the active state (§3.1). Idle
	// VMs touch only their working set.
	Active bool

	// Partial reports whether the VM currently runs as a partial VM
	// (memory fetched on demand from its home's memory server).
	Partial bool

	// Home is the index of the host that owns the VM's full memory image
	// (its current home, §3.1). Host is where the VM presently runs.
	Home int
	Host int
	// HostSlot is where the host the VM is resident on keeps it, so
	// that the host checks residency without a search. Only package
	// host writes it.
	HostSlot int32

	// WorkingSet is the VM's idle working set — the memory a partial VM
	// actually pins on a consolidation host. It grows slowly while the VM
	// stays consolidated (§3.2: hosts can be exhausted "when partial VMs
	// ... request additional resources as their idle working sets grow").
	WorkingSet units.Bytes
}

// Footprint returns the memory the VM pins on its current host: the full
// allocation when running as a full VM, or the working set rounded up to
// the hypervisor's 2 MiB chunk granularity when partial.
func (v *VM) Footprint() units.Bytes {
	if v.Partial {
		return chunkRound(v.WorkingSet)
	}
	return v.Alloc
}

// FullFootprint returns what the VM would pin if converted to a full VM.
func (v *VM) FullFootprint() units.Bytes { return v.Alloc }

// Consolidated reports whether the VM runs away from its home.
func (v *VM) Consolidated() bool { return v.Host != v.Home && v.Host != NoHost }

// String summarises the VM for logs.
func (v *VM) String() string {
	mode := "full"
	if v.Partial {
		mode = "partial"
	}
	state := "idle"
	if v.Active {
		state = "active"
	}
	return fmt.Sprintf("vm%04d(%s,%s,%s,home=%d,host=%d)", v.ID, v.Class, state, mode, v.Home, v.Host)
}

func chunkRound(b units.Bytes) units.Bytes {
	if b <= 0 {
		return units.ChunkSize
	}
	return (b + units.ChunkSize - 1) / units.ChunkSize * units.ChunkSize
}

// ChunkRound exposes chunk rounding for capacity planning.
func ChunkRound(b units.Bytes) units.Bytes { return chunkRound(b) }
