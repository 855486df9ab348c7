package agent

import (
	"slices"
	"strings"
	"testing"

	"oasis/internal/cluster"
	"oasis/internal/pagestore"
	"oasis/internal/rng"
	"oasis/internal/simtime"
	"oasis/internal/trace"
	"oasis/internal/units"
)

// startCell builds a cluster from cfg and brings up one loopback agent
// per host, named as the cluster names it, with 1 MiB VMs placed as the
// cluster places them.
func startCell(t *testing.T, cfg cluster.Config) (*cluster.Cluster, *Manager, *Applier) {
	t.Helper()
	cfg.HostReserved = 2 * units.GiB
	cfg.Seed = 7
	if cfg.EventLogSize == 0 {
		cfg.EventLogSize = 1024
	}
	c, err := cluster.New(simtime.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	t.Cleanup(m.Close)
	for _, h := range c.Hosts {
		a := New(h.Name, secret, nil)
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		if err := m.AddHost(a.Name, a.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	ap, err := NewApplier(m, c, units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	return c, m, ap
}

// checkAgents compares the agents with the planner after an interval:
// every VM runs (is listed, not away) on exactly the agent of the host the
// planner has it on, partial or full as the planner has it, and an agent
// is suspended exactly when its host is not powered, running nothing.
func checkAgents(t *testing.T, m *Manager, c *cluster.Cluster, iv int) {
	t.Helper()
	scans, err := m.RefreshStats()
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		host    string
		partial bool
	}
	runs := map[pagestore.VMID][]run{}
	for _, sc := range scans {
		if sc.Err != nil {
			t.Fatal(sc.Err)
		}
		for _, h := range c.Hosts {
			if h.Name == sc.Name && sc.Stats.Suspended == h.Powered() {
				t.Fatalf("interval %d: %s suspended=%v, its host is %v", iv, h.Name, sc.Stats.Suspended, h.State())
			}
		}
		for _, vi := range sc.Stats.VMs {
			if vi.Away {
				continue
			}
			if sc.Stats.Suspended {
				t.Fatalf("interval %d: suspended %s runs vm %04d", iv, sc.Name, vi.VMID)
			}
			runs[vi.VMID] = append(runs[vi.VMID], run{sc.Name, vi.Partial})
		}
	}
	for _, v := range c.VMs {
		if got, want := runs[v.ID], []run{{c.Hosts[v.Host].Name, v.Partial}}; !slices.Equal(got, want) {
			t.Fatalf("interval %d: vm %04d runs at %v, the planner has %v", iv, v.ID, got, want)
		}
	}
}

// guestPages writes one tracked page of a VM wherever the planner runs it,
// and checks that every VM reads back its last write.
type guestPages struct {
	m    *Manager
	c    *cluster.Cluster
	want map[pagestore.VMID]byte
}

const trackedPFN = 70

func (g *guestPages) write(t *testing.T, i int, b byte) {
	t.Helper()
	v := g.c.VMs[i]
	if err := g.m.WritePage(g.c.Hosts[v.Host].Name, v.ID, trackedPFN, page(b)); err != nil {
		t.Fatal(err)
	}
	g.want[v.ID] = b
}

func (g *guestPages) verify(t *testing.T) {
	t.Helper()
	for _, v := range g.c.VMs {
		got, err := g.m.ReadPage(g.c.Hosts[v.Host].Name, v.ID, trackedPFN)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != g.want[v.ID] {
			t.Fatalf("vm %04d page = %x, want %x", v.ID, got[0], g.want[v.ID])
		}
	}
}

// TestApplierFulltoPartialDay runs the paper's FulltoPartial policy over a
// synthetic weekday on live agents: 3 homes of 4 VMs and 2 consolidation
// hosts. Every action the planner commits must be accepted, the agents
// must match the planner after every interval, every kind of action must
// occur, and the guests' pages must survive the day.
func TestApplierFulltoPartialDay(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Policy = cluster.FulltoPartial
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 3, 2, 4
	// Room for one home's VMs at 4 GiB each, so consolidation hosts both
	// convert in place and run out of room.
	cfg.HostCap = 18 * units.GiB
	c, m, ap := startCell(t, cfg)
	g := &guestPages{m: m, c: c, want: map[pagestore.VMID]byte{}}
	for i := range c.VMs {
		g.write(t, i, byte(i+1))
	}

	days := trace.GenerateSeeded(trace.Weekday, len(c.VMs), 1)
	applied := map[string]int{}
	active := make([]bool, len(c.VMs))
	for iv := range trace.IntervalsPerDay {
		for i := range active {
			active[i] = days[i].Active[iv]
		}
		evs, err := ap.Step(active)
		if err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
		for _, e := range evs {
			switch {
			case !e.Move():
				applied[e.Kind]++
			case e.Partial:
				applied[e.Kind+" partial"]++
			default:
				applied[e.Kind+" full"]++
			}
		}
		checkAgents(t, m, c, iv)
		if iv%12 == 0 {
			g.write(t, iv/12%len(c.VMs), byte(iv/12+100))
		}
	}
	g.verify(t)
	t.Logf("applied %v", applied)
	for _, k := range []string{"vacate partial", "vacate full", "exchange full", "exchange partial",
		"return-all full", "reintegrate full", "convert full", "wake", "suspend"} {
		if applied[k] == 0 {
			t.Errorf("no %s applied: %v", k, applied)
		}
	}
}

// TestApplierOnlyPartialSoak drives the OnlyPartial policy on live agents
// through random activity: a page written wherever a VM runs survives
// every move, and the agents match the planner after every interval.
func TestApplierOnlyPartialSoak(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Policy = cluster.OnlyPartial
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 3, 1, 3
	cfg.HostCap = 32 * units.GiB
	c, m, ap := startCell(t, cfg)
	g := &guestPages{m: m, c: c, want: map[pagestore.VMID]byte{}}
	for i := range c.VMs {
		g.write(t, i, byte(i+1))
	}

	r := rng.New(77)
	active := make([]bool, len(c.VMs))
	moves := 0
	for step := range 40 {
		for i := range active {
			active[i] = r.Bool(0.25)
		}
		evs, err := ap.Step(active)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, e := range evs {
			if e.Move() {
				moves++
			}
		}
		checkAgents(t, m, c, step)
		g.write(t, r.Intn(len(c.VMs)), byte(r.Intn(250)+1))
		g.verify(t)
	}
	if moves == 0 {
		t.Fatal("the soak moved no VM")
	}
}

// TestApplierRefusesNewHome hands the applier one synthetic new-home move.
// It must refuse the event by name without calling an agent: its Manager
// is nil, so any call would panic.
func TestApplierRefusesNewHome(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 2, 1, 1
	cfg.EventLogSize = 16
	c, err := cluster.New(simtime.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap := &Applier{c: c}
	v := c.VMs[0]
	e := cluster.Event{Kind: cluster.EvNewHome, VM: v.ID, From: v.Host, Host: len(c.Hosts) - 1}
	if err := ap.apply(e); err == nil || !strings.Contains(err.Error(), "new-home move is not supported") {
		t.Fatalf("applying a new-home move: %v, want it refused by name", err)
	}
}

// TestApplierRefusesAGappedLog gives the planner a decision log too small
// for one interval's actions: the applier must stop rather than drive the
// agents through half a plan.
func TestApplierRefusesAGappedLog(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 2, 1, 2
	cfg.HostCap = 32 * units.GiB
	cfg.EventLogSize = 2
	c, _, ap := startCell(t, cfg)
	if _, err := ap.Step(make([]bool, len(c.VMs))); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("an interval that overflowed the log: %v, want dropped events", err)
	}
}
