package sim

import (
	"testing"

	"oasis/internal/cluster"
	"oasis/internal/trace"
	"oasis/internal/vm"
)

func run(t *testing.T, policy cluster.Policy, kind trace.DayKind) *Result {
	t.Helper()
	cc := cluster.DefaultConfig()
	cc.Policy = policy
	r, err := Run(Config{Cluster: cc, Kind: kind, TraceSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWeekdaySavingsBands pins each policy's weekday savings to the band
// the paper's Figure 8 reports (30 home + 4 consolidation hosts):
// OnlyPartial ~6%, Default marginally better, FulltoPartial up to 28%,
// NewHome ~= FulltoPartial, and the FullOnly prior-work baseline far
// behind.
func TestWeekdaySavingsBands(t *testing.T) {
	op := run(t, cluster.OnlyPartial, trace.Weekday)
	if op.SavingsPct < 2 || op.SavingsPct > 12 {
		t.Errorf("OnlyPartial weekday = %.1f%%, want ~6%%", op.SavingsPct)
	}
	def := run(t, cluster.Default, trace.Weekday)
	if def.SavingsPct <= op.SavingsPct-1 {
		t.Errorf("Default (%.1f%%) not at least marginally better than OnlyPartial (%.1f%%)",
			def.SavingsPct, op.SavingsPct)
	}
	ftp := run(t, cluster.FulltoPartial, trace.Weekday)
	if ftp.SavingsPct < 20 || ftp.SavingsPct > 32 {
		t.Errorf("FulltoPartial weekday = %.1f%%, want ~28%%", ftp.SavingsPct)
	}
	if ftp.SavingsPct <= def.SavingsPct+5 {
		t.Errorf("FulltoPartial (%.1f%%) does not clearly beat Default (%.1f%%)",
			ftp.SavingsPct, def.SavingsPct)
	}
	nh := run(t, cluster.NewHome, trace.Weekday)
	if diff := nh.SavingsPct - ftp.SavingsPct; diff < -4 || diff > 6 {
		t.Errorf("NewHome (%.1f%%) should be close to FulltoPartial (%.1f%%)",
			nh.SavingsPct, ftp.SavingsPct)
	}
	fo := run(t, cluster.FullOnly, trace.Weekday)
	if fo.SavingsPct >= op.SavingsPct {
		t.Errorf("FullOnly baseline (%.1f%%) should trail OnlyPartial (%.1f%%)",
			fo.SavingsPct, op.SavingsPct)
	}
}

// TestWeekendSavingsHigher checks the weekend numbers: lower activity
// means deeper consolidation (paper: 43% for FulltoPartial).
func TestWeekendSavingsHigher(t *testing.T) {
	wd := run(t, cluster.FulltoPartial, trace.Weekday)
	we := run(t, cluster.FulltoPartial, trace.Weekend)
	if we.SavingsPct <= wd.SavingsPct+5 {
		t.Errorf("weekend %.1f%% not clearly above weekday %.1f%%", we.SavingsPct, wd.SavingsPct)
	}
	if we.SavingsPct < 33 || we.SavingsPct > 48 {
		t.Errorf("FulltoPartial weekend = %.1f%%, want ~43%%", we.SavingsPct)
	}
}

// TestFig7Shape checks the cluster-day series: peak activity no more than
// ~46% of VMs, powered hosts tracking activity, deep night consolidation.
func TestFig7Shape(t *testing.T) {
	r := run(t, cluster.FulltoPartial, trace.Weekday)
	if len(r.ActiveSeries) != trace.IntervalsPerDay {
		t.Fatalf("series length = %d", len(r.ActiveSeries))
	}
	if frac := float64(r.PeakActive) / 900; frac < 0.30 || frac > 0.52 {
		t.Errorf("peak active fraction = %.2f", frac)
	}
	// Minimum powered hosts is small (paper: all 900 VMs fit in three
	// consolidation hosts at the trough).
	minPowered := 1 << 30
	for _, p := range r.PoweredSeries {
		if p < minPowered {
			minPowered = p
		}
	}
	if minPowered > 7 {
		t.Errorf("minimum powered hosts = %d, want <= 7", minPowered)
	}
	// Powered hosts at the 2 pm peak exceed the night-time count.
	if r.PoweredSeries[14*12] <= r.PoweredSeries[3*12] {
		t.Error("powered hosts do not track activity")
	}
}

// TestFig11DelayShape checks the transition-delay distribution: most
// partial transitions complete within a few seconds and the worst resume
// storm stays around the paper's 19 s.
func TestFig11DelayShape(t *testing.T) {
	r := run(t, cluster.FulltoPartial, trace.Weekday)
	zf := r.Stats.ZeroDelayFraction()
	if zf < 0.45 || zf > 0.85 {
		t.Errorf("zero-delay fraction = %.2f", zf)
	}
	if p50 := r.Stats.DelaySample.Percentile(50); p50 > 4 {
		t.Errorf("median partial delay = %.1fs, want < 4s", p50)
	}
	if max := r.Stats.DelaySample.Max(); max > 30 {
		t.Errorf("max delay = %.1fs, want ~19s", max)
	}
}

// TestZeroDelayDropsWithConsHosts reproduces Figure 11's trend: more
// consolidation hosts mean more partial residency and fewer zero-latency
// transitions (paper: 75% at 2 hosts down to 38% at 12).
func TestZeroDelayDropsWithConsHosts(t *testing.T) {
	zf := func(ch int) float64 {
		cc := cluster.DefaultConfig()
		cc.ConsHosts = ch
		r, err := Run(Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.ZeroDelayFraction()
	}
	two, twelve := zf(2), zf(12)
	if two < 0.65 || two > 0.90 {
		t.Errorf("zero-delay at 2 cons hosts = %.2f, want ~0.75", two)
	}
	if twelve >= two-0.2 {
		t.Errorf("zero-delay did not drop: 2 hosts %.2f, 12 hosts %.2f", two, twelve)
	}
}

// TestFig9ConsolidationRatio checks that FulltoPartial packs many more
// VMs per consolidation host than Default (paper medians: 93 vs 60).
func TestFig9ConsolidationRatio(t *testing.T) {
	def := run(t, cluster.Default, trace.Weekday)
	ftp := run(t, cluster.FulltoPartial, trace.Weekday)
	md, mf := def.Stats.ConsRatio.Percentile(50), ftp.Stats.ConsRatio.Percentile(50)
	if mf <= md {
		t.Errorf("FulltoPartial median ratio %.0f not above Default %.0f", mf, md)
	}
	if mf < 60 {
		t.Errorf("FulltoPartial median consolidation ratio = %.0f, want > 60", mf)
	}
}

// TestFig10TrafficTrade checks that FulltoPartial trades energy for
// network traffic: it moves more bytes than Default.
func TestFig10TrafficTrade(t *testing.T) {
	def := run(t, cluster.Default, trace.Weekday)
	ftp := run(t, cluster.FulltoPartial, trace.Weekday)
	if ftp.Stats.NetworkBytes() <= def.Stats.NetworkBytes() {
		t.Errorf("FulltoPartial traffic %v not above Default %v",
			ftp.Stats.NetworkBytes(), def.Stats.NetworkBytes())
	}
	// Partial-migration traffic must be dominated by something other
	// than descriptors alone.
	if ftp.Stats.OnDemandBytes == 0 || ftp.Stats.ReintegrateBytes == 0 {
		t.Error("traffic categories missing")
	}
	// SAS uploads never hit the network counters.
	if ftp.Stats.SASBytes == 0 {
		t.Error("no SAS upload traffic recorded")
	}
}

// TestTable3MemServerPower reproduces the Table 3 sweep: cheaper memory
// servers raise savings monotonically.
func TestTable3MemServerPower(t *testing.T) {
	savings := func(watts float64) float64 {
		cc := cluster.DefaultConfig()
		cc.Profile.MemServerW = watts
		r, err := Run(Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return r.SavingsPct
	}
	proto, one := savings(42.2), savings(1)
	if one <= proto+5 {
		t.Errorf("1 W memory server (%.1f%%) not clearly above prototype (%.1f%%)", one, proto)
	}
	if one < 33 || one > 48 {
		t.Errorf("1 W weekday savings = %.1f%%, want ~41%%", one)
	}
}

// TestDeterminism: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	a := run(t, cluster.FulltoPartial, trace.Weekday)
	b := run(t, cluster.FulltoPartial, trace.Weekday)
	if a.SavingsPct != b.SavingsPct || a.OasisJoules != b.OasisJoules {
		t.Fatalf("same seed, different results: %.4f vs %.4f", a.SavingsPct, b.SavingsPct)
	}
	for i := range a.PoweredSeries {
		if a.PoweredSeries[i] != b.PoweredSeries[i] {
			t.Fatalf("powered series diverges at %d", i)
		}
	}
}

func TestRunN(t *testing.T) {
	cc := cluster.DefaultConfig()
	sum, err := RunN(Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Savings.N() != 3 || len(sum.Runs) != 3 {
		t.Fatalf("RunN aggregated %d runs", sum.Savings.N())
	}
	// Distinct seeds should produce slightly different runs.
	if sum.Runs[0].SavingsPct == sum.Runs[1].SavingsPct &&
		sum.Runs[1].SavingsPct == sum.Runs[2].SavingsPct {
		t.Error("all runs identical despite different seeds")
	}
	if sum.Savings.Std() > 5 {
		t.Errorf("run-to-run std = %.2f, suspiciously high", sum.Savings.Std())
	}
}

func TestRunPropagatesClusterErrors(t *testing.T) {
	cc := cluster.DefaultConfig()
	cc.HomeHosts = 0
	if _, err := Run(Config{Cluster: cc, Kind: trace.Weekday}); err == nil {
		t.Error("invalid cluster config accepted")
	}
}

func TestRunWeek(t *testing.T) {
	cc := cluster.DefaultConfig()
	w, err := RunWeek(Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wd, we := w.Weekday.Savings.Mean(), w.Weekend.Savings.Mean()
	if we <= wd {
		t.Errorf("weekend %.1f%% not above weekday %.1f%%", we, wd)
	}
	want := (5*wd + 2*we) / 7
	if diff := w.SavingsPct - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("weekly weighting wrong: %v vs %v", w.SavingsPct, want)
	}
	// A working week of hybrid consolidation saves roughly 25-35%.
	if w.SavingsPct < 20 || w.SavingsPct > 40 {
		t.Errorf("weekly savings = %.1f%%", w.SavingsPct)
	}
}

// TestServerWorkloadMix exercises §5.6's generality claim: a cluster of
// web and database servers (whose idle working sets are far smaller than
// desktops') saves at least as much energy as the VDI farm.
func TestServerWorkloadMix(t *testing.T) {
	vdi := cluster.DefaultConfig()
	vdiRes, err := Run(Config{Cluster: vdi, Kind: trace.Weekday, TraceSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	srv := cluster.DefaultConfig()
	srv.ClassMix = []vm.Class{vm.WebServer, vm.DBServer}
	srvRes, err := Run(Config{Cluster: srv, Kind: trace.Weekday, TraceSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if srvRes.SavingsPct < vdiRes.SavingsPct-2 {
		t.Errorf("server farm savings %.1f%% fell below VDI %.1f%%",
			srvRes.SavingsPct, vdiRes.SavingsPct)
	}
	// Idle servers fetch far less on demand than desktops.
	if srvRes.Stats.OnDemandBytes >= vdiRes.Stats.OnDemandBytes {
		t.Errorf("server on-demand traffic %v not below desktop %v",
			srvRes.Stats.OnDemandBytes, vdiRes.Stats.OnDemandBytes)
	}
}

// TestNoConsolidationHosts: with no consolidation hosts the manager has
// nowhere to put VMs; it must run the day without crashing or saving.
func TestNoConsolidationHosts(t *testing.T) {
	cc := cluster.DefaultConfig()
	cc.ConsHosts = 0
	r, err := Run(Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.SavingsPct > 0.5 || r.SavingsPct < -5 {
		t.Errorf("savings with no consolidation hosts = %.1f%%, want ~0", r.SavingsPct)
	}
	if r.Stats.Ops[cluster.OpPartialFirst] != 0 {
		t.Error("partial migrations happened with no destinations")
	}
}

// TestCorpusSampling: the paper samples 900 user-days from a small
// corpus; with CorpusUsers set the sampler must reuse corpus days.
func TestCorpusSampling(t *testing.T) {
	cc := cluster.DefaultConfig()
	cc.HomeHosts = 2
	cc.ConsHosts = 1
	cc.VMsPerHost = 4
	r, err := Run(Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 5, CorpusUsers: 22})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ActiveSeries) != trace.IntervalsPerDay {
		t.Fatalf("series length %d", len(r.ActiveSeries))
	}
}

// TestContinuousWeek runs a full working week on one cluster without
// resets: savings must hold up day after day (no placement drift or
// bookkeeping leak), and the cluster invariants must survive.
func TestContinuousWeek(t *testing.T) {
	cc := cluster.DefaultConfig()
	week := []trace.DayKind{
		trace.Weekday, trace.Weekday, trace.Weekday, trace.Weekday, trace.Weekday,
		trace.Weekend, trace.Weekend,
	}
	r, err := RunContinuous(Config{Cluster: cc, TraceSeed: 13}, week)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DailySavings) != 7 {
		t.Fatalf("daily savings = %v", r.DailySavings)
	}
	// Weekdays hold steady: the last weekday must not have degraded
	// relative to the first (no drift).
	if r.DailySavings[4] < r.DailySavings[0]-5 {
		t.Errorf("weekday savings drifted: day1 %.1f%% -> day5 %.1f%%",
			r.DailySavings[0], r.DailySavings[4])
	}
	for d, s := range r.DailySavings[:5] {
		if s < 18 || s > 34 {
			t.Errorf("weekday %d savings = %.1f%%", d, s)
		}
	}
	for d, s := range r.DailySavings[5:] {
		if s < 30 || s > 48 {
			t.Errorf("weekend %d savings = %.1f%%", d, s)
		}
	}
	// Weekly total ~ 5:2 blend.
	if r.SavingsPct < 22 || r.SavingsPct > 38 {
		t.Errorf("weekly savings = %.1f%%", r.SavingsPct)
	}
}
