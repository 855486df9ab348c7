package experiments

import (
	"fmt"
	"strings"
	"time"

	"oasis/internal/cluster"
	"oasis/internal/migration"
	"oasis/internal/placement"
	"oasis/internal/power"
	"oasis/internal/trace"
	"oasis/internal/units"
)

// AblationDifferentialUpload quantifies §4.3's differential-upload
// optimisation: repeat consolidations send only pages dirtied since the
// previous upload.
func AblationDifferentialUpload(_ Option) Report {
	m := migration.MicroBenchModel()
	alloc := 4 * units.GiB
	desc := 16 * units.MiB
	dirty := 874 * units.MiB

	with := m.PartialMigration(dirty, desc, false)
	without := m.PartialMigration(alloc, desc, true)
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %12s\n", "repeat consolidation", "latency", "SAS bytes")
	fmt.Fprintf(&b, "%-34s %9.1fs %12v\n", "with differential upload", with.Latency.Seconds(), with.SASBytes)
	fmt.Fprintf(&b, "%-34s %9.1fs %12v\n", "without (full re-upload)", without.Latency.Seconds(), without.SASBytes)
	fmt.Fprintf(&b, "differential upload cuts repeat-consolidation latency %.1fx\n",
		without.Latency.Seconds()/with.Latency.Seconds())
	return Report{ID: "ab-diff", Title: "Ablation: differential memory upload (§4.3)", Text: b.String()}
}

// AblationCompression quantifies per-page compression on the upload path:
// CPU-cheap LZ compression triples effective SAS bandwidth.
func AblationCompression(_ Option) Report {
	withC := migration.MicroBenchModel()
	withoutC := withC
	withoutC.CompressionRatio = 1.0
	alloc := 4 * units.GiB
	desc := 16 * units.MiB

	a := withC.PartialMigration(alloc, desc, true)
	bOp := withoutC.PartialMigration(alloc, desc, true)
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %12s\n", "first consolidation", "latency", "SAS bytes")
	fmt.Fprintf(&b, "%-34s %9.1fs %12v\n", "with per-page compression (3.1x)", a.Latency.Seconds(), a.SASBytes)
	fmt.Fprintf(&b, "%-34s %9.1fs %12v\n", "without compression", bOp.Latency.Seconds(), bOp.SASBytes)
	fmt.Fprintf(&b, "the host must stay powered during the upload: compression shortens the\n")
	fmt.Fprintf(&b, "awake window by %.0f s per consolidation\n", bOp.Latency.Seconds()-a.Latency.Seconds())
	return Report{ID: "ab-lzf", Title: "Ablation: per-page compression on the upload path (§4.3)", Text: b.String()}
}

// AblationSharedMemServer models the design alternative §3.3 rejects: one
// network-accessible memory server shared by all hosts. Every
// consolidating host must then push its VMs' full memory over the shared
// network instead of the host-local SAS link.
func AblationSharedMemServer(_ Option) Report {
	m := migration.ClusterModel()
	hosts := 30
	perHostUpload := m.PartialMigration(30*4*units.GiB, 16*units.MiB, true)

	// Per-host servers: uploads ride each host's private SAS link in
	// parallel; the cluster-wide consolidation takes one host's time.
	perHostModel := migration.MicroBenchModel()
	sasTime := units.TransferTime(perHostModel.PartialMigration(30*4*units.GiB, 0, true).SASBytes, perHostModel.SAS)

	// Shared server: 30 hosts' compressed images serialize on the rack
	// network into the one server.
	sharedBytes := perHostUpload.SASBytes * units.Bytes(hosts)
	sharedTime := units.TransferTime(sharedBytes, units.Bandwidth(float64(m.Net)*m.NetEfficiency))

	var b strings.Builder
	fmt.Fprintf(&b, "consolidating 30 home hosts (30 x 4 GiB VMs each, compressed):\n")
	fmt.Fprintf(&b, "%-38s %12s %14s\n", "memory server design", "bytes moved", "wall clock")
	fmt.Fprintf(&b, "%-38s %12v %13.0fs (parallel SAS)\n", "per-host (Oasis)",
		perHostUpload.SASBytes, sasTime.Seconds())
	fmt.Fprintf(&b, "%-38s %12v %13.0fs (saturates rack)\n", "shared network server",
		sharedBytes, sharedTime.Seconds())
	fmt.Fprintf(&b, "paper §3.3: shared-server full migrations saturate the network and do\n")
	fmt.Fprintf(&b, "not scale; per-host servers keep upload traffic off the datacenter network\n")
	return Report{ID: "ab-shared", Title: "Ablation: per-host vs shared memory server (§3.3)", Text: b.String()}
}

// AblationOverwriteElision quantifies skipping the fetch of pages the
// guest fully overwrites (§4.4.3).
func AblationOverwriteElision(_ Option) Report {
	m := migration.MicroBenchModel()
	fetched := m.OnDemandFetch(migration.DesktopRate, 165*units.MiB, 20*time.Minute)
	dirty := units.FromMiB(175.3)
	withoutElision := fetched + dirty // every dirtied page would fault first

	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %14s\n", "20-minute consolidation episode", "on-demand fetch")
	fmt.Fprintf(&b, "%-38s %14v\n", "with overwrite elision", fetched)
	fmt.Fprintf(&b, "%-38s %14v\n", "without (fetch before overwrite)", withoutElision)
	fmt.Fprintf(&b, "dirty state pushed back at reintegration is %v either way; elision is\n", dirty)
	fmt.Fprintf(&b, "why reintegration traffic exceeds the state consolidated (§4.4.3)\n")
	return Report{ID: "ab-elide", Title: "Ablation: overwrite elision on the fault path (§4.4.3)", Text: b.String()}
}

// AblationPlacement compares destination-selection strategies for the
// consolidation planner: the paper's literal random choice (§3.1) against
// the bin-packing family.
func AblationPlacement(opt Option) Report {
	strategies := []placement.Strategy{
		placement.Random{},
		placement.FirstFit{},
		placement.BestFit{},
		placement.WorstFit{},
		placement.RandomBestK{K: 2},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %12s\n", "strategy", "weekday%", "weekend%", "exhaustions")
	for _, s := range strategies {
		cfg := baseConfig(opt)
		cfg.Placement = s
		wd, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("ab-place", err)
		}
		we, err := runDay(opt, cfg, trace.Weekend)
		if err != nil {
			return errReport("ab-place", err)
		}
		name := s.Name()
		if name == "random" {
			name += " (paper §3.1)"
		}
		if name == "random-best-k" {
			name += " (default)"
		}
		fmt.Fprintf(&b, "%-20s %10.1f %10.1f %12d\n", name, wd.SavingsPct, we.SavingsPct, wd.Stats.Exhaustions)
	}
	fmt.Fprintf(&b, "savings are insensitive because the powered-first rule (§3.1: wake a\n")
	fmt.Fprintf(&b, "consolidation host only to accommodate incoming VMs) already drives\n")
	fmt.Fprintf(&b, "draining; strategies mainly shift exhaustion churn (first-fit worst)\n")
	return Report{ID: "ab-place", Title: "Ablation: consolidation-host placement strategy", Text: b.String()}
}

// AblationVacateOrder compares the §3.1 cheapest-first vacate ordering
// with a most-expensive-first alternative.
func AblationVacateOrder(opt Option) Report {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %12s\n", "vacate ordering", "weekday%", "exhaustions")
	for _, desc := range []bool{false, true} {
		cfg := baseConfig(opt)
		cfg.VacateDescending = desc
		r, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("ab-order", err)
		}
		name := "ascending demand (paper)"
		if desc {
			name = "descending demand"
		}
		fmt.Fprintf(&b, "%-34s %10.1f %12d\n", name, r.SavingsPct, r.Stats.Exhaustions)
	}
	return Report{ID: "ab-order", Title: "Ablation: vacate ordering (§3.1 greedy queue)", Text: b.String()}
}

// AblationHeadroom compares planning with and without consolidation-host
// headroom.
func AblationHeadroom(opt Option) Report {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %12s %14s\n", "planner headroom", "weekday%", "exhaustions", "home wakes")
	for _, hr := range []float64{0, 0.15} {
		cfg := baseConfig(opt)
		cfg.VacateHeadroom = hr
		r, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("ab-headroom", err)
		}
		fmt.Fprintf(&b, "%-34s %10.1f %12d %14d\n", fmt.Sprintf("%.0f%%", hr*100),
			r.SavingsPct, r.Stats.Exhaustions, r.Stats.Ops[cluster.OpHomeWake])
	}
	fmt.Fprintf(&b, "headroom absorbs in-place conversions that would otherwise exhaust the\n")
	fmt.Fprintf(&b, "consolidation host and trigger wake-the-home returns\n")
	return Report{ID: "ab-headroom", Title: "Ablation: consolidation-host planning headroom", Text: b.String()}
}

// AblationPowerModel compares the paper's flat hosting power with the
// linear per-active-VM alternative.
func AblationPowerModel(opt Option) Report {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "powered-host power model", "weekday%", "weekend%")
	for _, linear := range []bool{false, true} {
		cfg := baseConfig(opt)
		name := "flat 137.9 W (paper Table 1)"
		if linear {
			cfg.Profile = power.LinearProfile()
			name = "linear 102.2 W + 1.8 W/active VM"
		}
		wd, err := runDay(opt, cfg, trace.Weekday)
		if err != nil {
			return errReport("ab-power", err)
		}
		we, err := runDay(opt, cfg, trace.Weekend)
		if err != nil {
			return errReport("ab-power", err)
		}
		fmt.Fprintf(&b, "%-34s %10.1f %10.1f\n", name, wd.SavingsPct, we.SavingsPct)
	}
	fmt.Fprintf(&b, "the paper's savings normalisation charges powered hosts the Table 1\n")
	fmt.Fprintf(&b, "\"20 VMs\" rate; a linear model shrinks the sleep/powered gap and savings\n")
	return Report{ID: "ab-power", Title: "Ablation: powered-host power model", Text: b.String()}
}
