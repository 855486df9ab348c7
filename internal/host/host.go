// Package host models a physical server in an Oasis cluster: its memory
// capacity, the VMs resident on it, its ACPI power-state machine with the
// measured S3 transition times, and its attached low-power memory server.
package host

import (
	"cmp"
	"fmt"
	"slices"

	"oasis/internal/power"
	"oasis/internal/simtime"
	"oasis/internal/units"
	"oasis/internal/vm"
)

// Role distinguishes compute (home) hosts from consolidation hosts (§3.1,
// Figure 3).
type Role int

// Host roles.
const (
	Compute Role = iota
	Consolidation
)

// String renders the role name.
func (r Role) String() string {
	if r == Consolidation {
		return "consolidation"
	}
	return "compute"
}

// ErrCapacity is returned when a placement would exceed host memory.
type ErrCapacity struct {
	Host int
	Need units.Bytes
	Free units.Bytes
}

// Error implements error.
func (e *ErrCapacity) Error() string {
	return fmt.Sprintf("host %d: need %v but only %v free", e.Host, e.Need, e.Free)
}

// Host is one physical server.
type Host struct {
	ID   int
	Name string
	Role Role

	// Cap is total RAM; Reserved is the slice the administrative domain
	// (dom0) and hypervisor keep.
	Cap      units.Bytes
	Reserved units.Bytes

	sim     *simtime.Simulator
	profile power.Profile
	meter   *power.Meter

	state       power.State
	memServerOn bool
	// pendingWake holds the callbacks to run when the resume in progress
	// (or queued behind the suspend in progress) completes; spareWake is
	// the queue the last resume drained, kept for the next. slept is the
	// done of the suspend in progress. suspended and resumed complete the
	// transitions, bound once in New, so that scheduling one allocates
	// nothing.
	pendingWake, spareWake []func()
	slept                  func()
	suspended, resumed     func()

	// onChange, if set, runs after every change to the host's memory
	// accounting (AddVM/RemoveVM/Recharge, via refreshPower) or power
	// state (setState). The cluster's capacity index subscribes here to
	// stay current without rescanning hosts; the callback must be O(1).
	onChange func(*Host)

	// The residents, unordered: each one's HostSlot is its place in vms,
	// and RemoveVM moves the last VM into the hole. byID is vms in ID
	// order, sorted again by VMs when stale.
	vms   []*vm.VM
	byID  []*vm.VM
	stale bool
	used  units.Bytes
	// active is the count of resident active VMs, adjusted by ±1 in
	// AddVM, RemoveVM and NoteVMStateChanged. Nothing recounts it, so a
	// resident's flip must be notified exactly once.
	active int
	// partials is never below the count of partial residents: AddVM and
	// RemoveVM count partial VMs in and out, Recharge (a resident may
	// have turned partial) counts one in, GrowPartials recounts.
	partials int

	// Transition counters for the evaluation.
	Suspends int
	Resumes  int
}

// Config describes a host to create.
type Config struct {
	ID       int
	Name     string
	Role     Role
	Cap      units.Bytes
	Reserved units.Bytes
	Profile  power.Profile
}

// New creates a powered host attached to the simulator's clock.
func New(sim *simtime.Simulator, cfg Config) *Host {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("host-%d", cfg.ID)
	}
	h := &Host{
		ID:       cfg.ID,
		Name:     cfg.Name,
		Role:     cfg.Role,
		Cap:      cfg.Cap,
		Reserved: cfg.Reserved,
		sim:      sim,
		profile:  cfg.Profile,
		meter:    power.NewMeter(cfg.Profile),
		state:    power.Powered,
	}
	h.suspended, h.resumed = h.finishSuspend, h.finishResume
	return h
}

// State returns the host's power state.
func (h *Host) State() power.State { return h.state }

// Powered reports whether the host can run VMs right now.
func (h *Host) Powered() bool { return h.state == power.Powered }

// Sleeping reports whether the host is in S3.
func (h *Host) Sleeping() bool { return h.state == power.Sleeping }

// InTransit reports whether the host is between power modes.
func (h *Host) InTransit() bool {
	return h.state == power.Suspending || h.state == power.Resuming
}

// Meter exposes the host's energy meter.
func (h *Host) Meter() *power.Meter { return h.meter }

// Usable returns the memory available to VMs.
func (h *Host) Usable() units.Bytes { return h.Cap - h.Reserved }

// Used returns the memory pinned by resident VMs.
func (h *Host) Used() units.Bytes { return h.used }

// Free returns unpinned usable memory.
func (h *Host) Free() units.Bytes { return h.Usable() - h.used }

// Fits reports whether need bytes can be placed on the host.
func (h *Host) Fits(need units.Bytes) bool { return need <= h.Free() }

// NumVMs returns the count of resident VMs.
func (h *Host) NumVMs() int { return len(h.vms) }

// VMs returns the resident VMs in ascending ID order, so that no result
// depends on how residents are stored. The slice is the host's own:
// read-only, and valid until the next AddVM or RemoveVM.
func (h *Host) VMs() []*vm.VM {
	if h.stale {
		h.byID = append(h.byID[:0], h.vms...)
		slices.SortFunc(h.byID, func(a, b *vm.VM) int { return cmp.Compare(a.ID, b.ID) })
		h.stale = false
	}
	return h.byID
}

// holds reports whether v itself, not merely a VM with its ID, is
// resident here.
func (h *Host) holds(v *vm.VM) bool {
	j := int(v.HostSlot)
	return j >= 0 && j < len(h.vms) && h.vms[j] == v
}

// ActiveVMs counts resident active VMs in O(1) (see the active field).
func (h *Host) ActiveVMs() int { return h.active }

// AddVM places a VM on the host, charging its footprint. It fails if the
// host lacks capacity, is not powered, or already holds v.
func (h *Host) AddVM(v *vm.VM) error {
	if h.state != power.Powered {
		return fmt.Errorf("host %d: cannot place vm%04d while %v", h.ID, v.ID, h.state)
	}
	need := v.Footprint()
	if !h.Fits(need) {
		return &ErrCapacity{Host: h.ID, Need: need, Free: h.Free()}
	}
	if h.holds(v) {
		return fmt.Errorf("host %d: vm%04d already resident", h.ID, v.ID)
	}
	v.HostSlot = int32(len(h.vms))
	h.vms = append(h.vms, v)
	h.stale = true
	h.used += need
	if v.Active {
		h.active++
	}
	if v.Partial {
		h.partials++
	}
	v.Host = h.ID
	h.refreshPower()
	return nil
}

// RemoveVM takes a VM off the host, releasing its footprint.
func (h *Host) RemoveVM(v *vm.VM) error {
	if !h.holds(v) {
		return fmt.Errorf("host %d: vm%04d not resident", h.ID, v.ID)
	}
	j, last := v.HostSlot, len(h.vms)-1
	moved := h.vms[last]
	h.vms[j], moved.HostSlot = moved, j
	h.vms[last] = nil
	h.vms = h.vms[:last]
	h.stale = true
	h.used -= v.Footprint()
	if v.Active {
		h.active--
	}
	if v.Partial {
		h.partials--
	}
	h.refreshPower()
	return nil
}

// Recharge re-accounts a resident VM's footprint after its residency mode
// or working set changed. delta is applied against host capacity; growth
// beyond capacity is allowed here (detection happens in the manager's
// exhaustion check) so that working-set growth can actually exhaust a
// host, as §3.2 describes.
func (h *Host) Recharge(v *vm.VM, old units.Bytes) error {
	if !h.holds(v) {
		return fmt.Errorf("host %d: vm%04d not resident", h.ID, v.ID)
	}
	h.used += v.Footprint() - old
	h.partials++
	h.refreshPower()
	return nil
}

// GrowPartials adds grow to every partial resident's working set, capped
// at its allocation, and re-accounts the host once. A host without a
// partial resident is not walked or refreshed, so the energy integral
// sees the same (host, instant) refreshes as a Recharge per grown VM.
func (h *Host) GrowPartials(grow units.Bytes) {
	if h.partials == 0 {
		return
	}
	h.partials = 0
	for _, v := range h.vms {
		if !v.Partial {
			continue
		}
		old := v.Footprint()
		v.WorkingSet = min(v.WorkingSet+grow, v.Alloc)
		h.used += v.Footprint() - old
		h.partials++
	}
	if h.partials > 0 {
		h.refreshPower()
	}
}

// Exhausted reports whether resident footprints exceed usable memory.
func (h *Host) Exhausted() bool { return h.used > h.Usable() }

// SetOnChange registers the change callback; nil unregisters. At most
// one subscriber (the owning cluster's capacity index).
func (h *Host) SetOnChange(fn func(*Host)) { h.onChange = fn }

// refreshPower re-derives meter inputs from resident VM states.
func (h *Host) refreshPower() {
	h.meter.SetActiveVMs(h.sim.Now(), h.ActiveVMs())
	if h.onChange != nil {
		h.onChange(h)
	}
}

// NoteVMStateChanged must be called once after resident VM v flips
// between active and idle — the host cannot see the flip itself — so the
// active count and the power model track the load. A flip changes
// neither memory nor power state, so onChange does not run.
func (h *Host) NoteVMStateChanged(v *vm.VM) error {
	if !h.holds(v) {
		return fmt.Errorf("host %d: vm%04d not resident", h.ID, v.ID)
	}
	if v.Active {
		h.active++
	} else {
		h.active--
	}
	h.meter.SetActiveVMs(h.sim.Now(), h.active)
	return nil
}

// MemServerOn reports whether the host's low-power memory server is
// powered.
func (h *Host) MemServerOn() bool { return h.memServerOn }

// SetMemServer powers the host's memory server on or off.
func (h *Host) SetMemServer(on bool) {
	if h.memServerOn == on {
		return
	}
	h.memServerOn = on
	h.meter.SetMemServer(h.sim.Now(), on)
}

// Suspend starts the transition to S3. It fails if VMs are resident (the
// manager must migrate them first) or the host is not powered. done, if
// non-nil, runs when the host reaches S3.
func (h *Host) Suspend(done func()) error {
	if h.state != power.Powered {
		return fmt.Errorf("host %d: suspend while %v", h.ID, h.state)
	}
	if len(h.vms) > 0 {
		return fmt.Errorf("host %d: suspend with %d resident VMs", h.ID, len(h.vms))
	}
	h.setState(power.Suspending)
	h.Suspends++
	h.slept = done
	h.sim.After(h.profile.SuspendTime, "host-suspend", h.suspended)
	return nil
}

// finishSuspend puts the host in S3, runs the suspend's done, and starts
// a resume if a wake was queued meanwhile.
func (h *Host) finishSuspend() {
	h.setState(power.Sleeping)
	if done := h.slept; done != nil {
		h.slept = nil
		done()
	}
	if h.state == power.Sleeping && len(h.pendingWake) > 0 {
		h.startResume(nil)
	}
}

// Wake brings a sleeping host back to Powered (the manager sends a
// Wake-on-LAN, §4.1). done runs once the host is powered; if the host is
// mid-suspend the wake is queued behind the completing transition, and if
// it is already powered done runs immediately.
func (h *Host) Wake(done func()) {
	switch h.state {
	case power.Powered:
		if done != nil {
			done()
		}
	case power.Resuming:
		if done != nil {
			h.pendingWake = append(h.pendingWake, done)
		}
	case power.Suspending:
		// Queue: the resume starts after the suspend completes.
		h.pendingWake = append(h.pendingWake, func() {})
		if done != nil {
			h.pendingWake = append(h.pendingWake, done)
		}
	case power.Sleeping:
		h.startResume(done)
	}
}

func (h *Host) startResume(done func()) {
	h.setState(power.Resuming)
	h.Resumes++
	if done != nil {
		h.pendingWake = append(h.pendingWake, done)
	}
	h.sim.After(h.profile.ResumeTime, "host-resume", h.resumed)
}

// finishResume powers the host and runs the queued wakes. A wake may
// suspend and wake the host again, which queues on the other buffer.
func (h *Host) finishResume() {
	h.setState(power.Powered)
	cbs := h.pendingWake
	h.pendingWake = h.spareWake
	for _, cb := range cbs {
		cb()
	}
	clear(cbs)
	h.spareWake = cbs[:0]
}

func (h *Host) setState(s power.State) {
	h.state = s
	h.meter.SetState(h.sim.Now(), s)
	if h.onChange != nil {
		h.onChange(h)
	}
}

// String summarises the host.
func (h *Host) String() string {
	return fmt.Sprintf("%s(%v,%v,%d vms,%v/%v)", h.Name, h.Role, h.state, len(h.vms), h.used, h.Usable())
}
