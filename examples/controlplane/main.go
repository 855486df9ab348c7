// Controlplane: the simulator's consolidation policy driving real host
// agents over RPC. Three "hosts" run in-process, each with its own TCP
// endpoints and memory server. A tiny cluster model with the same host
// names plans a scripted morning of the FulltoPartial policy, interval by
// interval, and an agent.Applier carries out every action the planner
// commits — partial and full migrations, conversions in place,
// reintegrations, wakes and suspends — as manager calls to the agents.
// At the end every guest's pages are read back wherever the VM then runs.
//
// Run with: go run ./examples/controlplane
package main

import (
	"bytes"
	"fmt"
	"log"

	"oasis/internal/agent"
	"oasis/internal/cluster"
	"oasis/internal/pagestore"
	"oasis/internal/simtime"
	"oasis/internal/units"
)

func main() {
	// Two homes of two 4 GiB desktops and one consolidation host with
	// room for two of them in full: enough to convert in place, and to
	// run out of room.
	cfg := cluster.DefaultConfig()
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 2, 1, 2
	cfg.HostCap, cfg.HostReserved = 12*units.GiB, 2*units.GiB
	cfg.EventLogSize = 64
	c, err := cluster.New(simtime.New(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	secret := []byte("controlplane-example")
	mgr := agent.NewManager()
	defer mgr.Close()
	for _, h := range c.Hosts {
		a := agent.New(h.Name, secret, nil)
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		if err := mgr.AddHost(h.Name, a.Addr()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("host %d %s: agent %s, memory server %s\n", h.ID, h.Name, a.Addr(), a.MemServerAddr())
	}
	// The agents' VMs are 8 MiB stand-ins for the model's 4 GiB.
	ap, err := agent.NewApplier(mgr, c, 8*units.MiB)
	if err != nil {
		log.Fatal(err)
	}

	// Each user works a little before the morning starts: the guest
	// dirties 16 pages at home.
	onHost := func(v int) string { return c.Hosts[c.VMs[v].Host].Name }
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, int(units.PageSize)) }
	for i, v := range c.VMs {
		for pfn := pagestore.PFN(64); pfn < 80; pfn++ {
			if err := mgr.WritePage(onHost(i), v.ID, pfn, fill(byte(i+1))); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Which VMs are active in each five-minute interval.
	script := [][]int{{}, {}, {0}, {}, {0, 1, 2}, {0, 1, 2, 3}}
	for iv, on := range script {
		active := make([]bool, len(c.VMs))
		for _, i := range on {
			active[i] = true
		}
		fmt.Printf("\ninterval %d, active VMs %v:\n", iv, on)
		evs, err := ap.Step(active)
		for _, e := range evs {
			fmt.Println("  applied", e)
		}
		if err != nil {
			log.Fatal(err)
		}
		// Idle background activity: the last VM dirties a page wherever
		// it runs, consolidated or not.
		if iv == 1 {
			last := len(c.VMs) - 1
			if err := mgr.WritePage(onHost(last), c.VMs[last].ID, 200, fill(0xAB)); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  vm %04d dirtied page 200 on %s (partial: %v)\n", c.VMs[last].ID, onHost(last), c.VMs[last].Partial)
		}
	}

	ok := true
	for i, v := range c.VMs {
		for pfn := pagestore.PFN(64); pfn < 80; pfn++ {
			got, err := mgr.ReadPage(onHost(i), v.ID, pfn)
			if err != nil {
				log.Fatal(err)
			}
			ok = ok && got[0] == byte(i+1)
		}
	}
	last := len(c.VMs) - 1
	got, err := mgr.ReadPage(onHost(last), c.VMs[last].ID, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontents ok: %v\nremote dirty state preserved: %v\n", ok, got[0] == 0xAB)
	if !ok || got[0] != 0xAB {
		log.Fatal("guest pages lost")
	}
}
