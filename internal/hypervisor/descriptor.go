// Package hypervisor models the guest-visible mechanics that the Oasis
// prototype implemented inside Xen (§4.2): VM descriptors (page tables,
// configuration and execution context), partial VMs whose page-table
// entries are marked absent, page-fault generation, and the 2 MiB chunk
// frame allocator that limits heap fragmentation on the consolidation
// host.
//
// The paper's kernel-level C (shadow page tables, event channels) is
// replaced by an explicit present bitmap and a Pager callback; the
// observable behaviour — which pages fault, when frames are allocated,
// what dirty state reintegration must push — is preserved.
package hypervisor

import (
	"oasis/internal/pagestore"
	"oasis/internal/units"
)

// Descriptor is the VM metadata pushed to a destination host to create and
// start a partial VM: identification, sizing, device configuration and the
// execution context of its vCPUs. The paper measured the descriptor
// transfer at 16.0±0.5 MiB; the struct itself stays compact.
type Descriptor struct {
	VMID  pagestore.VMID
	Name  string
	Alloc units.Bytes
	VCPUs int

	// DiskImagePath is the network-storage path of the VM's virtual disk
	// (assumption 2 in §3: virtual disks are network hosted, so migration
	// never copies disk state).
	DiskImagePath string

	// PageTablePages is the number of frames holding the guest's page
	// tables; the receiving hypervisor allocates only these frames when
	// creating a partial VM.
	PageTablePages int64

	// ExecContext is the serialised register and device state (a frame payload in hand-offs).
	ExecContext []byte `json:"-"`

	// MemServerAddr and MemServerPort locate the memory server holding
	// the VM's pages, used to configure the destination's memtap (§4.2).
	MemServerAddr string
	MemServerPort int
}

// NewDescriptor builds a descriptor for a guest of the given size with a
// plausible page-table page count (one PTE page per 2 MiB of guest memory
// plus directory overhead).
func NewDescriptor(id pagestore.VMID, name string, alloc units.Bytes, vcpus int) *Descriptor {
	ptPages := alloc.Pages()/512 + 4
	return &Descriptor{
		VMID:           id,
		Name:           name,
		Alloc:          alloc,
		VCPUs:          vcpus,
		PageTablePages: ptPages,
		ExecContext:    make([]byte, 4096),
	}
}
