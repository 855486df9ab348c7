// Command oasis-sim runs one trace-driven Oasis cluster-day simulation
// (§5) and prints the energy outcome and day series. With -scenario or
// -users it instead runs a fleet of independent cells through the
// deterministic parallel simulator and prints the merged result plus its
// bit-identity fingerprint.
//
// Examples:
//
//	oasis-sim -policy FulltoPartial -home 30 -cons 4 -vms 30 -kind weekday
//	oasis-sim -scenario list
//	oasis-sim -scenario flash-crowd,users=90000 -simworkers 8
//	oasis-sim -users 1000000 -simworkers 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"oasis"
)

func parsePolicy(s string) (oasis.Policy, error) {
	switch strings.ToLower(s) {
	case "onlypartial":
		return oasis.OnlyPartial, nil
	case "default":
		return oasis.Default, nil
	case "fulltopartial":
		return oasis.FulltoPartial, nil
	case "newhome":
		return oasis.NewHome, nil
	case "fullonly":
		return oasis.FullOnly, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// The command line. The simulator models the paper's measured
// calibration only, so it takes none of the daemons' transport flags
// (-pool, -prefetch-streams, -upload-streams, -backends, ...): what those
// buy is measured on the running system by bench/.
var (
	policy = flag.String("policy", "FulltoPartial", "OnlyPartial|Default|FulltoPartial|NewHome|FullOnly")
	home   = flag.Int("home", 30, "home (compute) hosts")
	cons   = flag.Int("cons", 4, "consolidation hosts")
	vms    = flag.Int("vms", 30, "VMs per home host")
	kind   = flag.String("kind", "weekday", "weekday|weekend")
	seed   = flag.Uint64("seed", 1, "random seed")
	runs   = flag.Int("runs", 1, "days to simulate and average")
	series = flag.Bool("series", false, "print the hourly active/powered series")
	events = flag.Int("events", 0, "record and print the last N manager decisions")
	msMTBF = flag.Duration("ms-mtbf", 0, "inject memory-server outages with this mean time between failures per serving server (0 disables)")

	scenarioSpec = flag.String("scenario", "", "run a fleet scenario: name[,key=value,...] ('list' prints the library); see README")
	users        = flag.Int("users", 0, "fleet mode: total simulated users, sharded into independent cells (0 keeps the single-cluster mode unless -scenario is given)")
	simWorkers   = flag.Int("simworkers", 0, "fleet mode: cells simulated concurrently (<=0 means GOMAXPROCS; results are bit-identical at any worker count)")

	metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /traces and /debug/pprof on this address while the simulation runs (empty disables); see OBSERVABILITY.md")
)

func main() {
	flag.Parse()

	if *metricsAddr != "" {
		ts, err := oasis.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("oasis-sim: -metrics-addr: %v", err)
		}
		defer ts.Close()
		log.Printf("oasis-sim: telemetry on http://%s/metrics (scrape mid-run to watch the day unfold)", ts.Addr())
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}

	if *scenarioSpec == "list" {
		for _, name := range oasis.ScenarioNames() {
			s, _ := oasis.ScenarioByName(name)
			fmt.Printf("%-20s %s\n", s.Name, s.Description)
		}
		return
	}
	if *scenarioSpec != "" || *users > 0 {
		runFleet(*scenarioSpec, *users, *simWorkers, pol, *kind, *seed,
			*home, *cons, *vms, *series)
		return
	}

	cfg := oasis.DefaultSimConfig()
	cfg.Cluster.Policy = pol
	cfg.Cluster.HomeHosts = *home
	cfg.Cluster.ConsHosts = *cons
	cfg.Cluster.VMsPerHost = *vms
	cfg.Cluster.Seed = *seed
	cfg.TraceSeed = *seed
	cfg.Cluster.EventLogSize = *events
	cfg.Cluster.MemServerMTBF = *msMTBF
	cfg.Kind = oasis.Weekday
	if strings.ToLower(*kind) == "weekend" {
		cfg.Kind = oasis.Weekend
	}

	if *runs > 1 {
		sum, err := oasis.SimulateN(cfg, *runs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v on a %v, %d+%d hosts, %d VMs/host, %d runs:\n",
			pol, cfg.Kind, *home, *cons, *vms, *runs)
		fmt.Printf("  energy savings: %.1f%% ± %.1f%%\n", sum.Savings.Mean(), sum.Savings.Std())
		return
	}

	r, err := oasis.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v on a %v, %d+%d hosts, %d VMs/host:\n", pol, cfg.Kind, *home, *cons, *vms)
	fmt.Printf("  baseline: %.1f kWh   oasis: %.1f kWh   savings: %.1f%%\n",
		r.BaselineJoules/3.6e6, r.OasisJoules/3.6e6, r.SavingsPct)
	fmt.Printf("  peak active VMs: %d   zero-delay transitions: %.0f%%   exhaustions: %d\n",
		r.PeakActive, 100*r.Stats.ZeroDelayFraction(), r.Stats.Exhaustions)
	fmt.Printf("  network traffic: %v (full %v, descriptors %v, on-demand %v, reintegration %v)\n",
		r.Stats.NetworkBytes(), r.Stats.FullBytes, r.Stats.DescriptorBytes,
		r.Stats.OnDemandBytes, r.Stats.ReintegrateBytes)
	fmt.Printf("  operations: %v\n", r.Stats.Ops)
	if *msMTBF > 0 {
		// Print the fault-injection outcome straight from the live
		// registry — the same oasis_sim_* values a -metrics-addr scrape
		// shows, so the CLI summary cannot drift from the exposition.
		fmt.Println("  fault injection (oasis_sim_* from the live registry):")
		if err := oasis.WriteMetricsText(os.Stdout, "oasis_sim_"); err != nil {
			log.Fatal(err)
		}
	}
	if *series {
		fmt.Printf("%-6s %12s %14s\n", "hour", "active VMs", "powered hosts")
		for h := 0; h < 24; h++ {
			var act, pow int
			for i := h * 12; i < (h+1)*12; i++ {
				act += r.ActiveSeries[i]
				pow += r.PoweredSeries[i]
			}
			fmt.Printf("%-6d %12.0f %14.1f\n", h, float64(act)/12, float64(pow)/12)
		}
	}
	if *events > 0 {
		fmt.Printf("last %d manager decisions:\n", len(r.Events))
		for _, e := range r.Events {
			fmt.Println("  " + e.String())
		}
	}
}

// runFleet is the -scenario / -users path: a fleet of independent cells
// through the deterministic parallel simulator. Single-cluster flags
// (policy, home, cons, vms, seed, kind) override the scenario's cell
// template only when given explicitly on the command line, so a bare
// `-scenario flash-crowd` runs the library's defaults.
func runFleet(spec string, users, workers int, pol oasis.Policy, kind string, seed uint64, home, cons, vms int, series bool) {
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var fc oasis.FleetConfig
	if spec != "" {
		s, err := oasis.ParseScenario(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scenario %s: %s\n", s.Name, s.Description)
		fc = s.Fleet
	} else {
		fc = oasis.FleetConfig{Cell: oasis.DefaultClusterConfig(), Kind: oasis.Weekday, Seed: seed}
	}
	if explicit["policy"] {
		fc.Cell.Policy = pol
	}
	if explicit["home"] {
		fc.Cell.HomeHosts = home
	}
	if explicit["cons"] {
		fc.Cell.ConsHosts = cons
	}
	if explicit["vms"] {
		fc.Cell.VMsPerHost = vms
	}
	if explicit["seed"] {
		fc.Seed = seed
	}
	if explicit["kind"] {
		fc.Kind = oasis.Weekday
		if strings.ToLower(kind) == "weekend" {
			fc.Kind = oasis.Weekend
		}
	}
	if users > 0 {
		fc.Users = users
	}
	if workers != 0 {
		fc.Workers = workers
	}

	res, err := oasis.SimulateFleet(fc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d users in %d cells of %d, %d workers, %v, seed %d:\n",
		res.Users, res.Cells, fc.UsersPerCell(), res.Workers, res.Kind, fc.Seed)
	fmt.Printf("  baseline: %.1f kWh   oasis: %.1f kWh   savings: %.1f%%\n",
		float64(res.BaselineMicroJ)/1e6/3.6e6, float64(res.OasisMicroJ)/1e6/3.6e6, res.SavingsPct)
	fmt.Printf("  peak active VMs: %d   availability: %.5f%%   outages: %d\n",
		res.PeakActive, 100*res.Availability, res.Digest.MemServerOutages)
	fmt.Printf("  fingerprint: %#x   elapsed: %v\n", res.Fingerprint(), res.Elapsed)
	// The final statistics come straight from the live registry — the
	// same oasis_sim_fleet_* values a -metrics-addr scrape shows mid-run,
	// so the CLI summary cannot drift from the exposition.
	fmt.Println("  fleet statistics (oasis_sim_fleet_* from the live registry):")
	if err := oasis.WriteMetricsText(os.Stdout, "oasis_sim_fleet_"); err != nil {
		log.Fatal(err)
	}
	if series {
		fmt.Printf("%-6s %12s %14s\n", "hour", "active VMs", "powered hosts")
		for h := 0; h < 24; h++ {
			var act, pow int64
			for i := h * 12; i < (h+1)*12; i++ {
				act += res.ActiveSeries[i]
				pow += res.PoweredSeries[i]
			}
			fmt.Printf("%-6d %12.0f %14.1f\n", h, float64(act)/12, float64(pow)/12)
		}
	}
}
