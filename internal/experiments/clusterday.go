package experiments

import (
	"fmt"
	"strings"

	"oasis/internal/cluster"
	"oasis/internal/sim"
	"oasis/internal/trace"
	"oasis/internal/units"
)

// baseConfig returns the §5.1 cluster configuration seeded from opt.
func baseConfig(opt Option) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = opt.Seed
	return cfg
}

func runDay(opt Option, cfg cluster.Config, kind trace.DayKind) (*sim.Result, error) {
	return sim.Run(sim.Config{Cluster: cfg, Kind: kind, TraceSeed: opt.Seed})
}

// meanSavings averages savings over opt.Runs days.
func meanSavings(opt Option, cfg cluster.Config, kind trace.DayKind) (mean, std float64, err error) {
	runs := opt.Runs
	if runs <= 0 {
		runs = 1
	}
	sum, err := sim.RunN(sim.Config{Cluster: cfg, Kind: kind, TraceSeed: opt.Seed}, runs)
	if err != nil {
		return 0, 0, err
	}
	return sum.Savings.Mean(), sum.Savings.Std(), nil
}

// Fig7 regenerates Figure 7: active VMs and fully powered hosts over a
// simulated day (30 home + 4 consolidation hosts, FulltoPartial).
func Fig7(opt Option) Report {
	cfg := baseConfig(opt)
	cfg.Policy = cluster.FulltoPartial
	r, err := runDay(opt, cfg, trace.Weekday)
	if err != nil {
		return errReport("fig7", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %14s\n", "hour", "active VMs", "powered hosts")
	for h := 0; h < 24; h++ {
		// Average the 12 intervals of the hour.
		var act, pow int
		for i := h * 12; i < (h+1)*12; i++ {
			act += r.ActiveSeries[i]
			pow += r.PoweredSeries[i]
		}
		fmt.Fprintf(&b, "%-6d %12.0f %14.1f\n", h, float64(act)/12, float64(pow)/12)
	}
	minPow := 1 << 30
	for _, p := range r.PoweredSeries {
		if p < minPow {
			minPow = p
		}
	}
	vms := cfg.HomeHosts * cfg.VMsPerHost
	fmt.Fprintf(&b, "peak active: %d of %d VMs (%.0f%%); minimum powered hosts: %d\n",
		r.PeakActive, vms, 100*float64(r.PeakActive)/float64(vms), minPow)
	fmt.Fprintf(&b, "paper: never more than 411 (46%%) active; at the trough all 900 VMs\n")
	fmt.Fprintf(&b, "fit in three consolidation hosts\n")
	return Report{ID: "fig7", Title: "Active VMs and powered hosts over a simulated weekday", Text: b.String()}
}

// Fig8 regenerates Figure 8: energy savings vs number of consolidation
// hosts for each policy, weekday and weekend.
func Fig8(opt Option) Report {
	consCounts := []int{2, 4, 6, 8, 10, 12}
	policies := []cluster.Policy{cluster.OnlyPartial, cluster.Default, cluster.FulltoPartial, cluster.NewHome}
	if opt.Quick {
		consCounts = []int{2, 4, 12}
		policies = []cluster.Policy{cluster.OnlyPartial, cluster.FulltoPartial}
	}
	var b strings.Builder
	for _, kind := range []trace.DayKind{trace.Weekday, trace.Weekend} {
		fmt.Fprintf(&b, "%s savings (%%) by consolidation hosts:\n", kind)
		fmt.Fprintf(&b, "%-14s", "policy")
		for _, ch := range consCounts {
			fmt.Fprintf(&b, "%8d", ch)
		}
		b.WriteString("\n")
		for _, pol := range policies {
			fmt.Fprintf(&b, "%-14s", pol)
			for _, ch := range consCounts {
				cfg := baseConfig(opt)
				cfg.Policy = pol
				cfg.ConsHosts = ch
				mean, _, err := meanSavings(opt, cfg, kind)
				if err != nil {
					return errReport("fig8", err)
				}
				fmt.Fprintf(&b, "%8.1f", mean)
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "paper: OnlyPartial ~6%%; Default marginally better; FulltoPartial 28%%\n")
	fmt.Fprintf(&b, "weekday / 43%% weekend with the knee at 4 consolidation hosts;\n")
	fmt.Fprintf(&b, "NewHome adds no benefit over FulltoPartial\n")
	return Report{ID: "fig8", Title: "Energy savings vs consolidation hosts (30 home hosts)", Text: b.String()}
}

// Fig9 regenerates Figure 9: the CDF of consolidation ratio (VMs per
// powered consolidation host) per policy.
func Fig9(opt Option) Report {
	policies := []cluster.Policy{cluster.Default, cluster.FulltoPartial, cluster.NewHome}
	if opt.Quick {
		policies = []cluster.Policy{cluster.Default, cluster.FulltoPartial}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "percentile")
	for _, p := range policies {
		fmt.Fprintf(&b, "%16s", p)
	}
	b.WriteString("\n")
	results := make([]*sim.Result, len(policies))
	for i, pol := range policies {
		cfg := baseConfig(opt)
		cfg.Policy = pol
		r, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("fig9", err)
		}
		results[i] = r
	}
	for _, pct := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Fprintf(&b, "p%-13.0f", pct)
		for _, r := range results {
			fmt.Fprintf(&b, "%16.0f", r.Stats.ConsRatio.Percentile(pct))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "paper medians: Default 60 VMs/host, FulltoPartial 93; NewHome overlaps\n")
	return Report{ID: "fig9", Title: "CDF of consolidation ratio (VMs per consolidation host)", Text: b.String()}
}

// Fig10 regenerates Figure 10: the weekday data-transfer breakdown per
// policy.
func Fig10(opt Option) Report {
	policies := []cluster.Policy{cluster.OnlyPartial, cluster.Default, cluster.FulltoPartial, cluster.NewHome}
	if opt.Quick {
		policies = []cluster.Policy{cluster.Default, cluster.FulltoPartial}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s %10s %10s\n",
		"policy", "full", "convert", "descr", "on-demand", "reintegr", "total net")
	for _, pol := range policies {
		cfg := baseConfig(opt)
		cfg.Policy = pol
		r, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("fig10", err)
		}
		st := r.Stats
		gib := func(x units.Bytes) float64 { return x.GiBf() }
		fmt.Fprintf(&b, "%-14s %9.0fG %9.0fG %9.0fG %9.0fG %9.0fG %9.0fG\n",
			pol, gib(st.FullBytes), gib(st.ConvertBytes), gib(st.DescriptorBytes),
			gib(st.OnDemandBytes), gib(st.ReintegrateBytes), gib(st.NetworkBytes()))
	}
	fmt.Fprintf(&b, "paper: FulltoPartial trades energy for traffic — it moves the most\n")
	fmt.Fprintf(&b, "partial- and full-migration bytes; acceptable within a rack\n")
	return Report{ID: "fig10", Title: "Weekday data-transfer breakdown by policy", Text: b.String()}
}

// Fig11 regenerates Figure 11: the idle→active transition delay
// distribution as consolidation hosts vary.
func Fig11(opt Option) Report {
	consCounts := []int{2, 4, 6, 8, 10, 12}
	if opt.Quick {
		consCounts = []int{2, 4, 12}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %8s %8s %10s %8s\n",
		"cons hosts", "P(zero)", "p50", "p90", "p99", "p99.99", "max")
	for _, ch := range consCounts {
		cfg := baseConfig(opt)
		cfg.ConsHosts = ch
		r, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("fig11", err)
		}
		st := r.Stats
		fmt.Fprintf(&b, "%-12d %9.0f%% %7.1fs %7.1fs %7.1fs %9.1fs %7.1fs\n",
			ch, 100*st.ZeroDelayFraction(),
			st.DelayPercentile(50), st.DelayPercentile(90), st.DelayPercentile(99),
			st.DelayPercentile(99.99), st.DelaySample.Max())
	}
	fmt.Fprintf(&b, "paper: P(zero) falls 75%%->38%% as hosts go 2->12; partial transitions\n")
	fmt.Fprintf(&b, "typically < 4 s; worst resume storm 19 s at the 99.99th percentile\n")
	return Report{ID: "fig11", Title: "Idle→active transition delay distribution", Text: b.String()}
}

// Fig12 regenerates Figure 12: sensitivity of savings to cluster sizing
// with the 900 VMs spread across fewer, larger home hosts.
func Fig12(opt Option) Report {
	type combo struct{ homes, cons int }
	combos := []combo{
		{30, 2}, {30, 4}, {30, 6}, {30, 8}, {30, 10}, {30, 12},
		{20, 2}, {20, 3}, {20, 4},
		{18, 2}, {18, 3}, {18, 4},
		{15, 2}, {15, 3}, {15, 4},
		{10, 2}, {10, 3}, {10, 4},
	}
	if opt.Quick {
		combos = []combo{{30, 4}, {20, 3}, {15, 3}, {10, 3}}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "homes+cons", "VMs/host", "weekday%", "weekend%")
	for _, cb := range combos {
		cfg := baseConfig(opt)
		cfg.HomeHosts = cb.homes
		cfg.ConsHosts = cb.cons
		cfg.VMsPerHost = 900 / cb.homes
		// The paper scales server capacity with density (§5.6: hosts of
		// 45, 50, 60 and 90 VMs).
		cfg.HostCap = units.Bytes(cfg.VMsPerHost)*cfg.VMAlloc + 8*units.GiB
		cfg.HostReserved = 4 * units.GiB
		wd, _, err := meanSavings(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("fig12", err)
		}
		we, _, err := meanSavings(opt, cfg, trace.Weekend)
		if err != nil {
			return errReport("fig12", err)
		}
		fmt.Fprintf(&b, "%2d+%-9d %10d %10.1f %10.1f\n", cb.homes, cb.cons, cfg.VMsPerHost, wd, we)
	}
	fmt.Fprintf(&b, "paper: savings are similar regardless of VMs per home host\n")
	return Report{ID: "fig12", Title: "Sensitivity to cluster sizing (900 VMs total)", Text: b.String()}
}

// Table3 regenerates Table 3: savings with cheaper memory-server
// implementations.
func Table3(opt Option) Report {
	watts := []float64{42.2, 16, 8, 4, 2, 1}
	if opt.Quick {
		watts = []float64{42.2, 8, 1}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "memory server power", "weekday%", "weekend%")
	for _, w := range watts {
		cfg := baseConfig(opt)
		cfg.Profile.MemServerW = w
		wd, _, err := meanSavings(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("table3", err)
		}
		we, _, err := meanSavings(opt, cfg, trace.Weekend)
		if err != nil {
			return errReport("table3", err)
		}
		label := fmt.Sprintf("%.1f W", w)
		if w == 42.2 {
			label = "42.2 W (prototype)"
		}
		fmt.Fprintf(&b, "%-24s %10.1f %10.1f\n", label, wd, we)
	}
	fmt.Fprintf(&b, "paper: 28%%/43%% at the prototype's 42.2 W rising to 41%%/68%% at 1 W\n")
	return Report{ID: "table3", Title: "Alternative memory-server implementations", Text: b.String()}
}

func errReport(id string, err error) Report {
	return Report{ID: id, Title: "ERROR", Text: fmt.Sprintf("experiment failed: %v\n", err)}
}
