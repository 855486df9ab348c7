package host

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/power"
	"oasis/internal/rng"
	"oasis/internal/simtime"
	"oasis/internal/units"
	"oasis/internal/vm"
)

func newTestHost(sim *simtime.Simulator, id int, role Role) *Host {
	return New(sim, Config{
		ID:       id,
		Role:     role,
		Cap:      128 * units.GiB,
		Reserved: 4 * units.GiB,
		Profile:  power.DefaultProfile(),
	})
}

func TestCapacityAccounting(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	if h.Usable() != 124*units.GiB {
		t.Fatalf("Usable = %v", h.Usable())
	}
	v := &vm.VM{ID: 1, Alloc: 4 * units.GiB, Home: 0}
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	if h.Used() != 4*units.GiB || h.NumVMs() != 1 || v.Host != 0 {
		t.Fatalf("after add: used=%v n=%d host=%d", h.Used(), h.NumVMs(), v.Host)
	}
	if err := h.AddVM(v); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := h.RemoveVM(v); err != nil {
		t.Fatal(err)
	}
	if h.Used() != 0 {
		t.Fatalf("after remove: used=%v", h.Used())
	}
	if err := h.RemoveVM(v); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestCapacityLimit(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	// 31 x 4 GiB = 124 GiB fits exactly; the 32nd must fail.
	for i := 0; i < 31; i++ {
		if err := h.AddVM(&vm.VM{ID: pagestore.VMID(i + 1), Alloc: 4 * units.GiB}); err != nil {
			t.Fatalf("vm %d: %v", i, err)
		}
	}
	err := h.AddVM(&vm.VM{ID: 99, Alloc: 4 * units.GiB})
	var ce *ErrCapacity
	if !errors.As(err, &ce) {
		t.Fatalf("expected ErrCapacity, got %v", err)
	}
	if h.Fits(4 * units.GiB) {
		t.Error("Fits reports space on a full host")
	}
}

func TestOvercommit(t *testing.T) {
	sim := simtime.New()
	h := New(sim, Config{
		ID: 0, Cap: 128 * units.GiB, Reserved: 4 * units.GiB,
		Overcommit: 1.5, Profile: power.DefaultProfile(),
	})
	if h.Usable() != units.Bytes(float64(124*units.GiB)*1.5) {
		t.Fatalf("Usable with overcommit = %v", h.Usable())
	}
}

func TestPartialFootprintAndRecharge(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Consolidation)
	v := &vm.VM{ID: 2, Alloc: 4 * units.GiB, WorkingSet: 100 * units.MiB, Partial: true}
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	used := h.Used()
	if used != vm.ChunkRound(100*units.MiB) {
		t.Fatalf("partial VM charged %v", used)
	}
	// Working set grows; recharge accounts the delta.
	old := v.Footprint()
	v.WorkingSet = 200 * units.MiB
	if err := h.Recharge(v, old); err != nil {
		t.Fatal(err)
	}
	if h.Used() != vm.ChunkRound(200*units.MiB) {
		t.Fatalf("after recharge: used=%v", h.Used())
	}
	if err := h.Recharge(&vm.VM{ID: 77}, 0); err == nil {
		t.Error("recharge of absent VM accepted")
	}
}

func TestExhaustion(t *testing.T) {
	sim := simtime.New()
	h := New(sim, Config{ID: 0, Cap: 8 * units.GiB, Reserved: 0, Profile: power.DefaultProfile()})
	v := &vm.VM{ID: 1, Alloc: 16 * units.GiB, WorkingSet: 4 * units.GiB, Partial: true}
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	if h.Exhausted() {
		t.Fatal("host exhausted prematurely")
	}
	old := v.Footprint()
	v.WorkingSet = 9 * units.GiB
	if err := h.Recharge(v, old); err != nil {
		t.Fatal(err)
	}
	if !h.Exhausted() {
		t.Fatal("growth past capacity not detected")
	}
}

func TestSuspendResumeCycle(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	var sleptAt, wokeAt simtime.Time
	if err := h.Suspend(func() { sleptAt = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	if h.State() != power.Suspending || !h.InTransit() {
		t.Fatalf("state after Suspend = %v", h.State())
	}
	sim.Run()
	if !h.Sleeping() {
		t.Fatalf("state after transition = %v", h.State())
	}
	if sleptAt != simtime.Time(power.DefaultProfile().SuspendTime) {
		t.Fatalf("slept at %v", sleptAt)
	}
	h.Wake(func() { wokeAt = sim.Now() })
	if h.State() != power.Resuming {
		t.Fatalf("state after Wake = %v", h.State())
	}
	sim.Run()
	if !h.Powered() {
		t.Fatalf("state after resume = %v", h.State())
	}
	want := sleptAt.Add(power.DefaultProfile().ResumeTime)
	if wokeAt != want {
		t.Fatalf("woke at %v, want %v", wokeAt, want)
	}
	if h.Suspends != 1 || h.Resumes != 1 {
		t.Fatalf("transition counters = %d/%d", h.Suspends, h.Resumes)
	}
}

func TestSuspendRefusals(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	v := &vm.VM{ID: 1, Alloc: units.GiB}
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	if err := h.Suspend(nil); err == nil {
		t.Fatal("suspend with resident VMs accepted")
	}
	if err := h.RemoveVM(v); err != nil {
		t.Fatal(err)
	}
	if err := h.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Suspend(nil); err == nil {
		t.Fatal("double suspend accepted")
	}
}

func TestWakeWhilePowered(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	ran := false
	h.Wake(func() { ran = true })
	if !ran {
		t.Fatal("wake on powered host did not run callback immediately")
	}
}

func TestWakeDuringSuspendQueues(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	if err := h.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	var wokeAt simtime.Time
	h.Wake(func() { wokeAt = sim.Now() })
	sim.Run()
	if !h.Powered() {
		t.Fatalf("final state = %v", h.State())
	}
	p := power.DefaultProfile()
	want := simtime.Time(p.SuspendTime + p.ResumeTime)
	if wokeAt != want {
		t.Fatalf("woke at %v, want %v (suspend completes, then resume)", wokeAt, want)
	}
}

func TestAddVMWhileAsleepFails(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	if err := h.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := h.AddVM(&vm.VM{ID: 5, Alloc: units.GiB}); err == nil {
		t.Fatal("placement on sleeping host accepted")
	}
}

func TestMemServerPower(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	h.SetMemServer(true)
	if !h.MemServerOn() {
		t.Fatal("memory server not on")
	}
	sim.RunUntil(simtime.Hour)
	j := h.Meter().MemServerJoules(sim.Now())
	want := 42.2 * 3600
	if j < want-1 || j > want+1 {
		t.Fatalf("memserver joules = %v, want %v", j, want)
	}
	h.SetMemServer(true) // idempotent
}

func TestActivePowerTracking(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	v := &vm.VM{ID: 1, Alloc: 4 * units.GiB, Active: true}
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	if h.ActiveVMs() != 1 {
		t.Fatal("active VM not counted")
	}
	v.Active = false
	if err := h.NoteVMStateChanged(v); err != nil {
		t.Fatal(err)
	}
	if h.ActiveVMs() != 0 {
		t.Fatal("state change not tracked")
	}
}

func TestWakeDuringResumeQueuesCallback(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	if err := h.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// First wake starts the resume; a second wake during Resuming must
	// queue its callback for the same completion.
	var first, second simtime.Time
	h.Wake(func() { first = sim.Now() })
	if h.State() != power.Resuming {
		t.Fatalf("state = %v", h.State())
	}
	h.Wake(func() { second = sim.Now() })
	sim.Run()
	if !h.Powered() {
		t.Fatalf("state = %v", h.State())
	}
	if first != second || first == 0 {
		t.Fatalf("callbacks fired at %v and %v, want same instant", first, second)
	}
	if h.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1 (no double resume)", h.Resumes)
	}
}

// TestWakeFromAWakeCallback: a wake callback that suspends the host and
// wakes it again queues that wake behind the new suspend, while the
// callbacks queued beside it still run, each once, in order.
func TestWakeFromAWakeCallback(t *testing.T) {
	sim := simtime.New()
	h := newTestHost(sim, 0, Compute)
	if err := h.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	var order []string
	at := map[string]simtime.Time{}
	note := func(name string) { order = append(order, name); at[name] = sim.Now() }
	h.Wake(func() {
		note("a")
		if err := h.Suspend(nil); err != nil {
			t.Fatal(err)
		}
		h.Wake(func() { note("c") })
	})
	h.Wake(func() { note("b") })
	sim.Run()
	if !slices.Equal(order, []string{"a", "b", "c"}) {
		t.Fatalf("wakes ran as %v, want [a b c]", order)
	}
	p := power.DefaultProfile()
	if at["b"] != at["a"] || at["c"] != at["a"].Add(p.SuspendTime+p.ResumeTime) {
		t.Fatalf("wakes ran at %v", at)
	}
	if !h.Powered() || h.Suspends != 2 || h.Resumes != 2 {
		t.Fatalf("state %v after %d suspends and %d resumes", h.State(), h.Suspends, h.Resumes)
	}
}

func TestRolesAndStrings(t *testing.T) {
	if Compute.String() != "compute" || Consolidation.String() != "consolidation" {
		t.Error("Role.String broken")
	}
	sim := simtime.New()
	h := newTestHost(sim, 3, Consolidation)
	s := h.String()
	if s == "" {
		t.Error("empty host string")
	}
	ce := &ErrCapacity{Host: 3, Need: units.GiB, Free: units.MiB}
	if ce.Error() == "" {
		t.Error("empty capacity error")
	}
}

// TestResidentInvariants drives a random history of placements,
// removals, activity flips, recharges and working-set growth over two
// hosts, with removals, recharges and flips also aimed at the host a VM
// is not on, and after every step recounts each host from scratch: the
// incrementally kept active count, pinned memory, resident count,
// residency and the strict ID order of VMs() must equal the recount, and
// the partial count GrowPartials skips on must not fall below it. The
// host keeps these by ±deltas and swap-removes by HostSlot, never
// re-deriving them, so this is what would catch a missed or doubled
// update or a stale slot.
func TestResidentInvariants(t *testing.T) {
	sim := simtime.New()
	hosts := []*Host{newTestHost(sim, 0, Compute), newTestHost(sim, 1, Consolidation)}
	r := rng.New(20160418)
	vms := make([]*vm.VM, 60)
	on := make([]*Host, len(vms)) // the reference model: where each VM is
	for i := range vms {
		vms[i] = &vm.VM{
			ID:         pagestore.VMID(1000 + r.Intn(5000)*len(vms) + i), // distinct, unordered
			Alloc:      4 * units.GiB,
			WorkingSet: units.Bytes(16+r.Intn(400)) * units.MiB,
			Active:     r.Bool(0.3),
		}
	}
	check := func(step int, op string) {
		t.Helper()
		for _, h := range hosts {
			var want []*vm.VM
			var used units.Bytes
			active, partials := 0, 0
			for i, v := range vms {
				if on[i] != h {
					if h.holds(v) {
						t.Fatalf("step %d (%s): host %d still holds vm%d", step, op, h.ID, v.ID)
					}
					continue
				}
				want = append(want, v)
				used += v.Footprint()
				if v.Active {
					active++
				}
				if v.Partial {
					partials++
				}
				if !h.holds(v) || v.Host != h.ID {
					t.Fatalf("step %d (%s): host %d does not hold resident vm%d", step, op, h.ID, v.ID)
				}
			}
			slices.SortFunc(want, func(a, b *vm.VM) int { return cmp.Compare(a.ID, b.ID) })
			if h.ActiveVMs() != active || h.Used() != used || h.NumVMs() != len(want) {
				t.Fatalf("step %d (%s): host %d keeps active=%d used=%v n=%d, recount gives active=%d used=%v n=%d",
					step, op, h.ID, h.ActiveVMs(), h.Used(), h.NumVMs(), active, used, len(want))
			}
			if h.partials < partials {
				t.Fatalf("step %d (%s): host %d counts %d partial residents, recount gives %d: GrowPartials would skip one",
					step, op, h.ID, h.partials, partials)
			}
			got := h.VMs()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): host %d VMs() is not the residents in ID order", step, op, h.ID)
			}
			for k := 1; k < len(got); k++ {
				if got[k-1].ID >= got[k].ID {
					t.Fatalf("step %d (%s): host %d VMs() not in strict ID order at %d", step, op, h.ID, k)
				}
			}
		}
	}
	for step := 0; step < 6000; step++ {
		i := r.Intn(len(vms))
		v, h := vms[i], on[i]
		var op string
		switch k := r.Intn(8); {
		case h == nil && k < 6: // place it (a full host refuses, which changes nothing)
			op = "add"
			dest := hosts[r.Intn(len(hosts))]
			v.Partial = !v.Active && r.Bool(0.7)
			if err := dest.AddVM(v); err == nil {
				on[i] = dest
			} else if !errors.As(err, new(*ErrCapacity)) {
				t.Fatal(err)
			}
		case k >= 6: // the wrong host, or any host for a VM placed nowhere
			op = "misaimed"
			wrong := hosts[r.Intn(len(hosts))]
			if wrong == h {
				wrong = hosts[(h.ID+1)%len(hosts)]
			}
			if err := wrong.RemoveVM(v); err == nil {
				t.Fatalf("step %d: host %d removed vm%d resident elsewhere", step, wrong.ID, v.ID)
			}
			if err := wrong.Recharge(v, v.Footprint()); err == nil {
				t.Fatalf("step %d: host %d recharged vm%d resident elsewhere", step, wrong.ID, v.ID)
			}
			if err := wrong.NoteVMStateChanged(v); err == nil {
				t.Fatalf("step %d: host %d took a flip of vm%d resident elsewhere", step, wrong.ID, v.ID)
			}
		case k == 0:
			op = "remove"
			if err := h.RemoveVM(v); err != nil {
				t.Fatal(err)
			}
			on[i] = nil
		case k <= 2:
			op = "flip"
			v.Active = !v.Active
			if err := h.NoteVMStateChanged(v); err != nil {
				t.Fatal(err)
			}
		case k == 3: // change residency mode, as convertInPlace does
			op = "recharge"
			old := v.Footprint()
			v.Partial = !v.Partial
			if err := h.Recharge(v, old); err != nil {
				t.Fatal(err)
			}
		case k == 4 && h.Role == Compute: // the duplicate add is refused
			op = "re-add"
			if err := h.AddVM(v); err == nil {
				t.Fatalf("step %d: vm%d added twice to host %d", step, v.ID, h.ID)
			}
		default:
			op = "grow"
			h.GrowPartials(units.Bytes(r.Intn(64)) * units.MiB)
		}
		check(step, op)
	}

	// A VM that merely carries a resident's ID, and sits in the same
	// slot on another host, is not that resident.
	var resident *vm.VM
	var h *Host
	for i, v := range vms {
		if on[i] != nil {
			resident, h = v, on[i]
		}
	}
	if h == nil {
		t.Fatal("history ended with no resident VM")
	}
	impostor := &vm.VM{ID: resident.ID, Alloc: resident.Alloc, Active: true, HostSlot: resident.HostSlot}
	if err := h.NoteVMStateChanged(impostor); err == nil {
		t.Error("flip of a VM that only shares a resident's ID accepted")
	}
	if err := h.RemoveVM(impostor); err == nil {
		t.Error("removal of a VM that only shares a resident's ID accepted")
	}
	if err := h.Recharge(impostor, 0); err == nil {
		t.Error("recharge of a VM that only shares a resident's ID accepted")
	}
	check(-1, "rejected impostor")
}
