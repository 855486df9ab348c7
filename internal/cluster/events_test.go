package cluster

import (
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/trace"
	"oasis/internal/units"
)

// TestDecisionLogReplaysPlacement replays the decision log of a seeded
// weekday over the initial placement, in a plain map, and checks at every
// interval boundary that the replay is the cluster: every VM's host and
// residency, every host's sleep state. Each move must also leave the host
// the replay has the VM on. The log alone is then enough to drive live
// agents (agent.Applier).
func TestDecisionLogReplaysPlacement(t *testing.T) {
	for _, policy := range []Policy{FulltoPartial, OnlyPartial} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := smallConfig(policy)
			cfg.HomeHosts, cfg.ConsHosts = 3, 2
			cfg.HostCap = 24 * units.GiB
			cfg.EventLogSize = 1 << 20
			tc := newTestCluster(t, cfg)
			days := trace.GenerateSeeded(trace.Weekday, len(tc.c.VMs), 5)

			type place struct {
				host    int
				partial bool
			}
			at := map[pagestore.VMID]place{}
			for _, v := range tc.c.VMs {
				at[v.ID] = place{v.Host, v.Partial}
			}
			asleep := map[int]bool{}
			for _, h := range tc.c.Hosts {
				asleep[h.ID] = h.Sleeping()
			}
			kinds := map[string]int{}
			active := make([]bool, len(tc.c.VMs))
			for iv := range trace.IntervalsPerDay {
				for i := range active {
					active[i] = days[i].Active[iv]
				}
				before := len(tc.c.Events())
				tc.tick(active...)
				for _, e := range tc.c.Events()[before:] {
					kinds[e.Kind]++
					switch {
					case e.Move():
						if from := at[e.VM].host; e.From != from {
							t.Fatalf("%v: the replay has the VM on host %d", e, from)
						}
						at[e.VM] = place{e.Host, e.Partial}
					case e.Kind == EvWake:
						asleep[e.Host] = false
					case e.Kind == EvSuspend:
						asleep[e.Host] = true
					}
				}
				for _, v := range tc.c.VMs {
					if got, want := at[v.ID], (place{v.Host, v.Partial}); got != want {
						t.Fatalf("interval %d: vm %04d replays to %+v, is %+v", iv, v.ID, got, want)
					}
				}
				for _, h := range tc.c.Hosts {
					if asleep[h.ID] != !h.Powered() {
						t.Fatalf("interval %d: host %d replays asleep=%v, is %v", iv, h.ID, asleep[h.ID], h.State())
					}
				}
			}
			if kinds[EvVacate] == 0 || kinds[EvReintegrate] == 0 || kinds[EvWake] == 0 || kinds[EvSuspend] == 0 {
				t.Fatalf("the day exercised too little: %v", kinds)
			}
			t.Logf("%v", kinds)
		})
	}
}
