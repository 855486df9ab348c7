package cluster

import (
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// Live telemetry for the simulated cluster (see OBSERVABILITY.md). The
// manager republishes these gauges at the end of every Tick, mirroring
// the cumulative Stats of the *current* run: scraping a live oasis-sim
// shows the day unfolding — powered hosts dropping as homes vacate,
// network bytes accruing per category, outages and recoveries under
// fault injection.
//
// Everything here is a gauge set from the manager's own counters rather
// than an incrementing telemetry counter: a process often runs many
// clusters back to back (RunN, policy sweeps), and the live view should
// describe the run in progress, not an accumulation across runs.
// Publishing only stores into registry atomics — it reads nothing back
// and draws no randomness — so simulation results are bit-identical with
// telemetry scraped, ignored, or disabled.
type simTel struct {
	activeVMs    *telemetry.Gauge
	poweredHosts *telemetry.Gauge
	consRatio    *telemetry.Gauge

	ops      [numOps]*telemetry.Gauge
	netBytes [len(netCategories)]*telemetry.Gauge

	outages      *telemetry.Gauge
	degraded     *telemetry.Gauge
	promotions   *telemetry.Gauge
	exhaustions  *telemetry.Gauge
	recoveryMean *telemetry.Gauge
}

// netCategories label the oasis_sim_network_bytes gauges, in the order
// publishTelemetry reads the Stats byte counters.
var netCategories = [...]string{"full", "convert", "descriptor", "on_demand", "reintegrate", "sas"}

func newSimTel() *simTel {
	r := telemetry.Default
	t := &simTel{
		activeVMs: r.Gauge("oasis_sim_active_vms",
			"VMs active in the current planning interval (Figure 7 'active VMs' series)."),
		poweredHosts: r.Gauge("oasis_sim_powered_hosts",
			"Hosts powered or in transit (Figure 7 'fully powered hosts' series)."),
		consRatio: r.Gauge("oasis_sim_consolidation_ratio",
			"Mean VMs per powered consolidation host so far this run (Figure 9)."),
		outages: r.Gauge("oasis_sim_memserver_outages",
			"Injected memory-server outages this run (MemServerMTBF > 0)."),
		degraded: r.Gauge("oasis_sim_degraded_vms",
			"Partial VMs stranded degraded by memory-server outages this run."),
		promotions: r.Gauge("oasis_sim_forced_promotions",
			"Degraded VMs force-promoted home this run (§4.4.4 recovery)."),
		exhaustions: r.Gauge("oasis_sim_exhaustions",
			"Consolidation-host capacity exhaustion events this run."),
		recoveryMean: r.Gauge("oasis_sim_outage_recovery_mean_seconds",
			"Mean forced-promotion recovery latency of degraded VMs this run."),
	}
	for k := range t.ops {
		t.ops[k] = r.Gauge("oasis_sim_ops",
			"Migration operations completed this run, by kind.",
			telemetry.L("kind", Op(k).String()))
	}
	for i, category := range netCategories {
		t.netBytes[i] = r.Gauge("oasis_sim_network_bytes",
			"Bytes moved this run, by traffic category (Figure 10; sas never touches the network).",
			telemetry.L("category", category))
	}
	return t
}

// publishTelemetry mirrors the cluster's cumulative Stats into the
// oasis_sim_* gauges. Called at the end of every Tick; cheap (a few
// dozen atomic stores) and free of side effects on the simulation.
func (c *Cluster) publishTelemetry() {
	if c.tel == nil {
		c.tel = newSimTel()
	}
	t := c.tel
	t.activeVMs.Set(float64(c.ActiveVMs()))
	t.poweredHosts.Set(float64(c.PoweredHosts()))
	t.consRatio.Set(c.Stats.ConsRatio.Mean())

	for k, n := range c.Stats.Ops {
		t.ops[k].Set(float64(n))
	}
	s := &c.Stats
	for i, b := range [...]units.Bytes{s.FullBytes, s.ConvertBytes, s.DescriptorBytes, s.OnDemandBytes, s.ReintegrateBytes, s.SASBytes} {
		t.netBytes[i].Set(float64(b))
	}

	t.outages.Set(float64(c.Stats.MemServerOutages))
	t.degraded.Set(float64(c.Stats.DegradedVMs))
	t.promotions.Set(float64(c.Stats.ForcedPromotions))
	t.exhaustions.Set(float64(c.Stats.Exhaustions))
	t.recoveryMean.Set(c.Stats.OutageRecovery.Mean())
}
