package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"oasis/internal/host"
	"oasis/internal/migration"
	"oasis/internal/power"
	"oasis/internal/simtime"
	"oasis/internal/units"
	"oasis/internal/vm"
)

// smallConfig builds a tiny cluster for mechanism tests: 2 home hosts of
// 4 VMs each plus 1 consolidation host.
func smallConfig(policy Policy) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.HomeHosts = 2
	cfg.ConsHosts = 1
	cfg.VMsPerHost = 4
	cfg.VMAlloc = 4 * units.GiB
	cfg.HostCap = 32 * units.GiB
	cfg.HostReserved = 2 * units.GiB
	cfg.Seed = 7
	return cfg
}

type testCluster struct {
	t   *testing.T
	sim *simtime.Simulator
	c   *Cluster
}

func newTestCluster(t *testing.T, cfg Config) *testCluster {
	t.Helper()
	s := simtime.New()
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{t: t, sim: s, c: c}
}

// tick applies one interval with the given activity bits and runs the
// simulation through the interval so asynchronous transitions complete.
func (tc *testCluster) tick(active ...bool) {
	tc.t.Helper()
	if err := tc.c.Tick(active); err != nil {
		tc.t.Fatal(err)
	}
	tc.sim.RunUntil(tc.sim.Now().Add(tc.c.Cfg.PlanEvery))
}

func (tc *testCluster) vmByIndex(i int) *vm.VM { return tc.c.VMs[i] }

func allIdle(n int) []bool { return make([]bool, n) }

func TestNewValidation(t *testing.T) {
	s := simtime.New()
	bad := DefaultConfig()
	bad.HomeHosts = 0
	if _, err := New(s, bad); err == nil {
		t.Error("zero home hosts accepted")
	}
	bad = DefaultConfig()
	bad.VMsPerHost = 40 // 160 GiB of VMs into 124 GiB usable
	if _, err := New(s, bad); err == nil {
		t.Error("oversubscribed initial placement accepted")
	}
}

func TestInitialState(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	if len(tc.c.VMs) != 8 {
		t.Fatalf("VMs = %d", len(tc.c.VMs))
	}
	for _, h := range tc.c.Hosts[:2] {
		if !h.Powered() || h.NumVMs() != 4 {
			t.Fatalf("home host %v not powered with 4 VMs", h)
		}
	}
	if !tc.c.Hosts[2].Sleeping() {
		t.Fatalf("consolidation host state = %v, want sleeping", tc.c.Hosts[2].State())
	}
	for _, v := range tc.c.VMs {
		if v.Active || v.Partial || v.Host != v.Home {
			t.Fatalf("initial VM state wrong: %v", v)
		}
		if v.WorkingSet <= 0 {
			t.Fatal("working set not sampled")
		}
		if want := fmt.Sprintf("vdi-%04d", v.ID); v.Name != want {
			t.Fatalf("VM %d named %q, want %q", v.ID, v.Name, want)
		}
	}
	// Names widen past four digits.
	if n := vmNames(9001); n[0] != "vdi-1000" || n[8999] != "vdi-9999" || n[9000] != "vdi-10000" {
		t.Fatalf("vmNames(9001) = %q ... %q, %q", n[0], n[8999], n[9000])
	}
}

func TestTickLengthMismatch(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	if err := tc.c.Tick([]bool{true}); err == nil {
		t.Error("short activity slice accepted")
	}
}

func TestVacateAllIdle(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...) // give scheduled suspends time to fire
	for _, h := range tc.c.Hosts[:2] {
		if !h.Sleeping() {
			t.Fatalf("home %v not sleeping after all-idle vacate", h)
		}
		if !h.MemServerOn() {
			t.Fatalf("home %v sleeping without memory server", h)
		}
	}
	cons := tc.c.Hosts[2]
	if !cons.Powered() || cons.NumVMs() != 8 {
		t.Fatalf("cons host %v, want powered with 8 VMs", cons)
	}
	for _, v := range tc.c.VMs {
		if !v.Partial || v.Host != 2 {
			t.Fatalf("VM not partially consolidated: %v", v)
		}
	}
	if tc.c.Stats.Ops["partial-first"] != 8 {
		t.Fatalf("ops = %v", tc.c.Stats.Ops)
	}
}

func TestActiveVMsMigrateFull(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	active := allIdle(8)
	active[0] = true // one active VM on home 0
	tc.tick(active...)
	tc.tick(active...)
	v := tc.vmByIndex(0)
	if v.Partial {
		t.Fatal("active VM consolidated partially")
	}
	if v.Host != 2 {
		t.Fatalf("active VM host = %d, want consolidation host", v.Host)
	}
	if v.Home != 0 {
		t.Fatalf("active VM home changed to %d", v.Home)
	}
	if tc.c.Stats.Ops["full-vacate"] != 1 {
		t.Fatalf("ops = %v", tc.c.Stats.Ops)
	}
	// Its home must be asleep regardless.
	if !tc.c.Hosts[0].Sleeping() {
		t.Fatalf("home 0 state = %v", tc.c.Hosts[0].State())
	}
}

func TestOnlyPartialRefusesActiveHosts(t *testing.T) {
	// Three homes so that vacating the two all-idle ones passes the
	// energy gate (2 x 82.8 W saved > one consolidation-host wake).
	cfg := smallConfig(OnlyPartial)
	cfg.HomeHosts = 3
	tc := newTestCluster(t, cfg)
	active := allIdle(12)
	active[0] = true
	tc.tick(active...)
	tc.tick(active...)
	// Host 0 has an active VM: it must not be vacated. Hosts 1 and 2 are
	// all idle: they consolidate.
	if tc.c.Hosts[0].Sleeping() {
		t.Fatal("OnlyPartial vacated a host with an active VM")
	}
	if !tc.c.Hosts[1].Sleeping() || !tc.c.Hosts[2].Sleeping() {
		t.Fatalf("idle hosts = %v / %v, want sleeping",
			tc.c.Hosts[1].State(), tc.c.Hosts[2].State())
	}
	if got := tc.c.Stats.Ops["full-vacate"]; got != 0 {
		t.Fatalf("OnlyPartial performed %d full migrations", got)
	}
}

func TestEnergyGateRefusesLosingPlan(t *testing.T) {
	// One all-idle home against a sleeping consolidation host: vacating
	// saves 82.8 W but waking costs 125 W, so the gate must refuse.
	cfg := smallConfig(FulltoPartial)
	cfg.HomeHosts = 1
	tc := newTestCluster(t, cfg)
	tc.tick(allIdle(4)...)
	tc.tick(allIdle(4)...)
	if tc.c.Hosts[0].Sleeping() {
		t.Fatal("net-losing vacate executed")
	}
	if !tc.c.Hosts[1].Sleeping() {
		t.Fatal("consolidation host woken for a losing plan")
	}
}

func TestConvertInPlace(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	// Activate one consolidated partial VM; the cons host has room, so
	// it converts in place.
	active := allIdle(8)
	active[3] = true
	tc.tick(active...)
	v := tc.vmByIndex(3)
	if v.Partial || v.Host != 2 {
		t.Fatalf("VM after conversion: %v", v)
	}
	if v.Home != 0 {
		t.Fatalf("conversion changed home to %d", v.Home)
	}
	if tc.c.Stats.Ops["convert-in-place"] != 1 {
		t.Fatalf("ops = %v", tc.c.Stats.Ops)
	}
	// The home stays asleep: no exhaustion occurred.
	if !tc.c.Hosts[0].Sleeping() {
		t.Fatalf("home 0 woke needlessly: %v", tc.c.Hosts[0].State())
	}
	// The transition was recorded as a non-zero delay.
	if tc.c.Stats.DelaySample.N() != 1 {
		t.Fatalf("delay samples = %d", tc.c.Stats.DelaySample.N())
	}
}

func TestFullToPartialExchange(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	active := allIdle(8)
	active[0] = true
	tc.tick(active...) // vacates both homes; VM 0 goes as a full VM
	tc.tick(active...)
	if tc.vmByIndex(0).Partial {
		t.Fatal("setup failed: VM 0 should be full on cons host")
	}
	// VM 0 goes idle: the exchange migrates it home and back as partial.
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	v := tc.vmByIndex(0)
	if !v.Partial || v.Host != 2 {
		t.Fatalf("VM after exchange: %v", v)
	}
	if tc.c.Stats.Ops["full-exchange"] != 1 {
		t.Fatalf("ops = %v", tc.c.Stats.Ops)
	}
	// The home woke briefly for the exchange, then returned to sleep.
	if !tc.c.Hosts[0].Sleeping() {
		t.Fatalf("home 0 after exchange: %v", tc.c.Hosts[0].State())
	}
}

func TestDefaultNoExchange(t *testing.T) {
	tc := newTestCluster(t, smallConfig(Default))
	active := allIdle(8)
	active[0] = true
	tc.tick(active...)
	tc.tick(active...)
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	// Under Default the idle full VM stays full on the cons host.
	v := tc.vmByIndex(0)
	if v.Partial || v.Host != 2 {
		t.Fatalf("Default exchanged anyway: %v", v)
	}
	if tc.c.Stats.Ops["full-exchange"] != 0 {
		t.Fatalf("ops = %v", tc.c.Stats.Ops)
	}
}

func TestExhaustionWakesHomeAndReturnsAll(t *testing.T) {
	cfg := smallConfig(Default)
	// Shrink the consolidation host so that one conversion exhausts it:
	// 8 partial VMs fit, but a 4 GiB conversion does not.
	cfg.HostCap = 32 * units.GiB
	cfg.VacateHeadroom = 0
	tc := newTestCluster(t, cfg)
	// Overwrite the consolidation host with a small one.
	small := host.New(tc.sim, host.Config{
		ID: 2, Name: "cons-small", Role: host.Consolidation,
		Cap: 4 * units.GiB, Reserved: 0, Profile: cfg.Profile,
	})
	if err := small.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	tc.sim.RunUntil(tc.sim.Now().Add(cfg.Profile.SuspendTime))
	tc.c.Hosts[2] = small

	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	if small.NumVMs() != 8 {
		t.Fatalf("setup: cons holds %d VMs", small.NumVMs())
	}
	// Activate a VM homed on host 0: 4 GiB does not fit in the 6 GiB
	// host, so its home wakes and all host-0 VMs return.
	active := allIdle(8)
	active[1] = true
	tc.tick(active...)
	tc.tick(active...)
	if tc.c.Stats.Exhaustions == 0 {
		t.Fatal("no exhaustion recorded")
	}
	h0 := tc.c.Hosts[0]
	if !h0.Powered() || h0.NumVMs() != 4 {
		t.Fatalf("home 0 after return: %v", h0)
	}
	for i := 0; i < 4; i++ {
		v := tc.vmByIndex(i)
		if v.Host != 0 || v.Partial {
			t.Fatalf("VM %d not returned: %v", i, v)
		}
	}
	// Host 1's VMs stay consolidated.
	for i := 4; i < 8; i++ {
		if tc.vmByIndex(i).Host != 2 {
			t.Fatalf("host-1 VM %d was disturbed", i)
		}
	}
}

func TestFullOnlyNeverPartial(t *testing.T) {
	cfg := smallConfig(FullOnly)
	tc := newTestCluster(t, cfg)
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	for _, v := range tc.c.VMs {
		if v.Partial {
			t.Fatalf("FullOnly produced a partial VM: %v", v)
		}
	}
	// 8 x 4 GiB = 32 GiB > 30 GiB usable: only one host's worth fits
	// with headroom, so at most one home vacated.
	if got := tc.c.Stats.Ops["partial-first"]; got != 0 {
		t.Fatalf("FullOnly did %d partial migrations", got)
	}
	// Transitions of full VMs are always zero-delay.
	active := allIdle(8)
	active[0] = true
	tc.tick(active...)
	if tc.c.Stats.DelaySample.N() != 0 || tc.c.Stats.ZeroTransitions != 1 {
		t.Fatalf("FullOnly delays: zero=%d sampled=%d", tc.c.Stats.ZeroTransitions, tc.c.Stats.DelaySample.N())
	}
}

func TestEnergyAccountingSavesWhenSleeping(t *testing.T) {
	cfg := smallConfig(FulltoPartial)
	tc := newTestCluster(t, cfg)
	for i := 0; i < 24; i++ { // two hours all idle
		tc.tick(allIdle(8)...)
	}
	total := tc.c.TotalEnergyJoules()
	// Both homes asleep (55.1 W each) plus one powered cons host
	// (137.9 W) must undercut three powered hosts.
	poweredAll := 3 * 137.9 * tc.sim.Now().Seconds()
	if total >= poweredAll {
		t.Fatalf("energy %v >= all-powered %v", total, poweredAll)
	}
	if tc.c.HomeHostEnergyJoules() >= total {
		t.Fatal("home energy exceeds total")
	}
}

func TestWorkingSetGrowthExhausts(t *testing.T) {
	cfg := smallConfig(Default)
	cfg.WSGrowthPerHour = 2 * units.GiB // aggressive growth
	cfg.VacateHeadroom = 0
	tc := newTestCluster(t, cfg)
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	for i := 0; i < 48 && tc.c.Stats.Exhaustions == 0; i++ {
		tc.tick(allIdle(8)...)
	}
	if tc.c.Stats.Exhaustions == 0 {
		t.Fatal("working-set growth never exhausted the consolidation host")
	}
}

func TestTrafficAccounting(t *testing.T) {
	tc := newTestCluster(t, smallConfig(FulltoPartial))
	active := allIdle(8)
	active[0] = true
	tc.tick(active...)
	tc.tick(active...)
	st := &tc.c.Stats
	if st.FullBytes == 0 {
		t.Error("no full-migration traffic recorded")
	}
	if st.DescriptorBytes == 0 || st.SASBytes == 0 {
		t.Error("no partial-migration traffic recorded")
	}
	// Descriptors are ~16 MiB per partial VM (7 idle VMs consolidated).
	wantDesc := 7 * 16 * units.MiB
	if st.DescriptorBytes != wantDesc {
		t.Errorf("descriptor bytes = %v, want %v", st.DescriptorBytes, wantDesc)
	}
	if st.NetworkBytes() < st.FullBytes+st.DescriptorBytes {
		t.Error("NetworkBytes total inconsistent")
	}
}

func TestDifferentialUploadSecondConsolidation(t *testing.T) {
	tc := newTestCluster(t, smallConfig(OnlyPartial))
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	if tc.c.Stats.Ops["partial-first"] != 8 {
		t.Fatalf("setup ops: %v", tc.c.Stats.Ops)
	}
	// Wake everything via an activation, then let it all go idle again:
	// the re-consolidation uses differential uploads.
	active := allIdle(8)
	active[2] = true
	tc.tick(active...)
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	if tc.c.Stats.Ops["partial-diff"] == 0 {
		t.Fatalf("no differential uploads: %v", tc.c.Stats.Ops)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		OnlyPartial: "OnlyPartial", Default: "Default", FulltoPartial: "FulltoPartial",
		NewHome: "NewHome", FullOnly: "FullOnly", Policy(42): "unknown",
	} {
		if p.String() != want {
			t.Errorf("Policy(%d) = %q", p, p.String())
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HomeHosts != 30 || cfg.ConsHosts != 4 || cfg.VMsPerHost != 30 {
		t.Errorf("§5.1 sizing wrong: %+v", cfg)
	}
	if cfg.VMAlloc != 4*units.GiB {
		t.Errorf("VM allocation = %v", cfg.VMAlloc)
	}
	if cfg.PlanEvery != 5*time.Minute {
		t.Errorf("planning interval = %v", cfg.PlanEvery)
	}
	if cfg.Model.Net != migration.ClusterModel().Net {
		t.Error("cluster model not 10 GigE")
	}
	if cfg.Profile.HostPower(power.Powered, 0) != 137.9 {
		t.Error("profile not the Table 1 flat model")
	}
}

func TestEventLog(t *testing.T) {
	cfg := smallConfig(FulltoPartial)
	cfg.EventLogSize = 64
	tc := newTestCluster(t, cfg)
	tc.tick(allIdle(8)...)
	tc.tick(allIdle(8)...)
	events := tc.c.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
		if e.String() == "" {
			t.Fatal("empty event rendering")
		}
	}
	if !kinds[EvVacate] || !kinds[EvSuspend] {
		t.Fatalf("missing vacate/suspend events: %v", kinds)
	}
	// Bounded: flood with activity cycles and check the cap holds.
	for i := 0; i < 30; i++ {
		active := allIdle(8)
		active[i%8] = true
		tc.tick(active...)
		tc.tick(allIdle(8)...)
	}
	if got := len(tc.c.Events()); got > 64 {
		t.Fatalf("event log grew to %d, cap 64", got)
	}
	// Disabled by default.
	tc2 := newTestCluster(t, smallConfig(FulltoPartial))
	tc2.tick(allIdle(8)...)
	if len(tc2.c.Events()) != 0 {
		t.Fatal("events recorded with logging disabled")
	}
}

// A host's deferred batches pop in order of due, ties in push order, and
// the buffer is reused once every batch has popped.
func TestBatchQueueOrder(t *testing.T) {
	var q batchQueue[int]
	q.push(10, []int{1, 2})
	q.push(5, []int{3})
	q.push(10, []int{4})
	q.push(7, nil)
	for _, want := range [][]int{{3}, {}, {1, 2}, {4}} {
		if got := q.pop(); !slices.Equal(got, want) {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	// A batch pushed due earlier than one already popped goes after it:
	// the popped ones have run.
	q.push(20, []int{5})
	q.push(30, []int{6})
	if got := q.pop(); !slices.Equal(got, []int{5}) {
		t.Fatalf("popped %v, want [5]", got)
	}
	q.push(1, []int{7})
	for _, want := range [][]int{{7}, {6}} {
		if got := q.pop(); !slices.Equal(got, want) {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if len(q.items) != 3 {
		t.Fatalf("%d items held after a drain and three pushes, want 3 (reused from 0)", len(q.items))
	}
}

// Two exchange batches queued on one waking home run as two: each VM is
// exchanged, and each batch schedules the home's sleep after its own busy
// time, so the home suspends after the shorter exchange, where one batch
// of both VMs suspends it after their sum.
func TestExchangeBatchesRunSeparately(t *testing.T) {
	suspendAt := func(batches [][]int) (simtime.Time, int64) {
		cfg := smallConfig(FulltoPartial)
		cfg.MaxVacateActiveFrac = 0
		cfg.EventLogSize = 256
		tc := newTestCluster(t, cfg)
		active := allIdle(8)
		active[0], active[1] = true, true
		tc.tick(active...) // vacates both homes; VMs 0 and 1 go full
		tc.tick(active...)
		v0, v1 := tc.vmByIndex(0), tc.vmByIndex(1)
		if v0.Partial || v1.Partial || v0.Host != 2 || v1.Host != 2 || !tc.c.Hosts[0].Sleeping() {
			t.Fatalf("setup: %v %v, home %v", v0, v1, tc.c.Hosts[0].State())
		}
		tc.c.setActive(v0, false)
		tc.c.setActive(v1, false)
		start := len(tc.c.Events())
		for _, b := range batches {
			var vs []*vm.VM
			for _, i := range b {
				vs = append(vs, tc.vmByIndex(i))
			}
			tc.c.exchangeIdleFulls(vs)
		}
		tc.sim.RunUntil(tc.sim.Now().Add(cfg.PlanEvery))
		if !v0.Partial || !v1.Partial || v0.Host != 2 || v1.Host != 2 {
			t.Fatalf("%v: after the exchange %v %v", batches, v0, v1)
		}
		for _, e := range tc.c.Events()[start:] {
			if e.Kind == EvSuspend && e.Host == 0 {
				return e.At, tc.c.Stats.Ops["full-exchange"]
			}
		}
		t.Fatalf("%v: home 0 never suspended", batches)
		return 0, 0
	}
	apart, n := suspendAt([][]int{{0}, {1}})
	together, m := suspendAt([][]int{{0, 1}})
	if n != 2 || m != 2 {
		t.Fatalf("full exchanges: %d in two batches, %d in one; want 2 and 2", n, m)
	}
	if apart >= together {
		t.Fatalf("home suspended at %v after two batches, %v after one: want earlier", apart, together)
	}
}
