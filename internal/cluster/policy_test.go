package cluster

import (
	"testing"

	"oasis/internal/host"
	"oasis/internal/units"
)

// TestNewHomeRelocatesOnExhaustion checks §3.2 NewHome: a partial VM that
// activates and exhausts its consolidation host migrates to any powered
// host with room instead of waking its home.
func TestNewHomeRelocatesOnExhaustion(t *testing.T) {
	cfg := smallConfig(NewHome)
	cfg.HomeHosts = 3
	cfg.ConsHosts = 1
	cfg.VacateHeadroom = 0
	// Keep hosts with any active VM powered (25% of 4 VMs exceeds the
	// gate), so a powered relocation target exists.
	cfg.MaxVacateActiveFrac = 0.2
	tc := newTestCluster(t, cfg)

	// Shrink the consolidation host so one conversion cannot fit.
	small := host.New(tc.sim, host.Config{
		ID: 3, Name: "cons-small", Role: host.Consolidation,
		Cap: 4 * units.GiB, Reserved: 0, Profile: cfg.Profile,
	})
	if err := small.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	tc.sim.RunUntil(tc.sim.Now().Add(cfg.Profile.SuspendTime))
	tc.c.Hosts[3] = small

	// Host 2 keeps an active VM, so it stays powered with spare room.
	pinned := allIdle(12)
	pinned[8] = true
	tc.tick(pinned...)
	tc.tick(pinned...)
	if !tc.c.Hosts[2].Powered() {
		t.Fatalf("setup: host 2 is %v, want powered", tc.c.Hosts[2].State())
	}

	// Find a partial VM from homes 0/1 on the small host and activate it.
	victim := -1
	for i, v := range tc.c.VMs {
		if v.Partial && v.Host == 3 && v.Home != 2 {
			victim = i
			break
		}
	}
	if victim == -1 {
		t.Fatal("no consolidated partial VM to activate")
	}
	active := allIdle(12)
	active[8] = true
	active[victim] = true
	tc.tick(active...)
	tc.tick(active...)

	v := tc.c.VMs[victim]
	if v.Partial {
		t.Fatalf("VM still partial after activation: %v", v)
	}
	if v.Host == 3 {
		t.Fatalf("VM still on the exhausted host: %v", v)
	}
	// The defining NewHome property: the home was NOT woken for a full
	// return (it may be powered for unrelated reasons, but its sibling
	// VMs must still be consolidated).
	if got := tc.c.Stats.Ops[OpFullNewHome]; got != 1 {
		t.Fatalf("full-newhome ops = %d (ops %v)", got, tc.c.Stats.Ops)
	}
	siblingsAway := 0
	for _, u := range tc.c.VMs {
		if u.Home == v.Home && u.ID != v.ID && u.Consolidated() {
			siblingsAway++
		}
	}
	if siblingsAway == 0 {
		t.Fatal("siblings were returned home; NewHome should have avoided the bulk return")
	}
}

// TestOnlyPartialActivationReturnsAll checks the Jettison behaviour: any
// activation wakes the home and brings every one of its VMs back.
func TestOnlyPartialActivationReturnsAll(t *testing.T) {
	cfg := smallConfig(OnlyPartial)
	cfg.HomeHosts = 3
	tc := newTestCluster(t, cfg)
	tc.tick(allIdle(12)...)
	tc.tick(allIdle(12)...)
	if !tc.c.Hosts[0].Sleeping() {
		t.Fatalf("setup: host 0 is %v", tc.c.Hosts[0].State())
	}
	active := allIdle(12)
	active[2] = true // a VM homed on host 0
	tc.tick(active...)
	tc.tick(active...)
	h0 := tc.c.Hosts[0]
	if !h0.Powered() || h0.NumVMs() != 4 {
		t.Fatalf("home 0 after activation: %v", h0)
	}
	for i := 0; i < 4; i++ {
		if tc.c.VMs[i].Partial || tc.c.VMs[i].Host != 0 {
			t.Fatalf("VM %d not fully home: %v", i, tc.c.VMs[i])
		}
	}
}

// TestExchangeSkipsVMsHomedOnConsHost: a full VM whose home *is* the
// consolidation host has nowhere to be exchanged through; the policy must
// leave it alone rather than wake anything.
func TestExchangeSkipsVMsHomedOnConsHost(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	// Manufacture the state: move a VM's home to the consolidation host.
	v := tc.c.VMs[0]
	active := allIdle(8)
	active[0] = true
	tc.tick(active...)
	tc.tick(active...)
	if v.Host != 2 {
		t.Fatalf("setup: %v", v)
	}
	v.Home = 2 // as if NewHome had adopted it here
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	if v.Partial || v.Host != 2 {
		t.Fatalf("VM homed on cons host was exchanged: %v", v)
	}
}
