package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"oasis/internal/agent"
	"oasis/internal/cluster"
	"oasis/internal/simtime"
	"oasis/internal/units"
)

// The fleet-scale control-plane stress benchmark (BENCH_cluster.json):
// one artifact, two measurements.
//
//   - Planner throughput. A 10,000-host simulator geometry (9,000 home
//     hosts × 12 VMs = 108,000 VMs, 1,000 consolidation hosts) is driven
//     to its consolidation steady state, then planning ticks are timed
//     under saturation retry pressure — the consolidation fleet is sized
//     (via VacateHeadroom) to absorb less than half the idle demand, so
//     thousands of home hosts re-plan every interval and most placement
//     searches fail. That is the planner's worst case: a walk over every
//     consolidation host pays O(ConsHosts) per search, fitting or not,
//     while the capacity index's bucket walk skips hosts that cannot
//     fit. The gate holds the planner to both halves of that: it may
//     examine at most clusterCandidatesPerPick hosts per search, and must
//     reach clusterPlansPerSecPerCore searches a second. (That the index
//     decides exactly as the full walk does is the CI-gated
//     planner-equivalence test's job, which keeps the walk as its
//     oracle; the run's fingerprint is recorded so two artifacts of one
//     seed can be compared.)
//
//   - Actuation latency. An in-process agent fleet (capped well below the
//     simulator's host count: each agent is two real listeners plus RPC
//     conns, and the box's fd budget — not the control plane — is the
//     binding constraint) is swept with full-fleet stats refreshes,
//     serial (fan-out limit 1) vs batched (the default bounded fan-out),
//     recording p50/p99 sweep latency. Reported, not gated: on a 1-CPU
//     box batching hides round-trip latency, not compute, so the batched
//     win here is modest by design; the numbers exist to track
//     regressions in the fan-out machinery itself.

// The planner gate. clusterCandidatesPerPick is the structural half:
// the index examined exactly one host per search at this geometry when
// the bar was set, a walk over every consolidation host examines 1,000,
// so 2 fails the moment the index stops indexing and cannot fail from
// noise. The throughput half is a per-core floor (planning is
// single-threaded): the 2-core sandbox the artifact is recorded on does
// 10–15 M plans/sec with the index and 0.26 M walking every host, so the
// floor fails a return of per-search scans while a CI runner a fifth as
// fast passes.
const (
	clusterCandidatesPerPick  = 2.0
	clusterPlansPerSecPerCore = 2_000_000
)

// PlannerStressRun is the planner's timed steady-state phase.
type PlannerStressRun struct {
	// ElapsedSec is the wall time of the measured ticks.
	ElapsedSec float64 `json:"elapsed_sec"`
	// Ticks is the number of measured planning intervals.
	Ticks int `json:"ticks"`
	// Picks counts placement searches during the measured phase.
	Picks int64 `json:"picks"`
	// Candidates counts consolidation hosts examined across those picks.
	Candidates int64 `json:"candidates_examined"`
	// CandidatesPerPick is Candidates / Picks and PlansPerSec is
	// Picks / ElapsedSec — the two gated metrics.
	CandidatesPerPick float64 `json:"candidates_per_pick"`
	PlansPerSec       float64 `json:"plans_per_sec"`
	// Fingerprint is the run's digest fingerprint, a function of the
	// seed and geometry alone.
	Fingerprint string `json:"fingerprint"`
}

// ActuationRun is one fan-out mode's stats-sweep measurement.
type ActuationRun struct {
	// Mode is "serial" or "batched".
	Mode string `json:"mode"`
	// FanOutLimit is the manager's concurrent-RPC bound for this mode.
	FanOutLimit int `json:"fanout_limit"`
	// Sweeps is how many full-fleet refreshes were timed.
	Sweeps int `json:"sweeps"`
	// P50Ms and P99Ms are sweep-latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// StatsPerSec is host stats fetched per second across all sweeps.
	StatsPerSec float64 `json:"stats_per_sec"`
}

// ClusterBench is the control-plane stress artifact; oasis-bench -json
// with -experiment cluster writes it as BENCH_cluster.json.
type ClusterBench struct {
	Experiment string `json:"experiment"`
	BenchMeta
	Hosts        int              `json:"hosts"`
	VMs          int              `json:"vms"`
	WarmupTicks  int              `json:"warmup_ticks"`
	Seed         uint64           `json:"seed"`
	Planner      PlannerStressRun `json:"planner_run"`
	Agents       int              `json:"agents"`
	Actuation    []ActuationRun   `json:"actuation_runs"`
	MeasuredGate Gate             `json:"measured_gate"`
	Note         string           `json:"note"`
}

// GateResult returns the measured acceptance gate (for oasis-bench's
// exit status).
func (b ClusterBench) GateResult() Gate { return b.MeasuredGate }

// clusterStressConfig is the 10k-host geometry (1k hosts under -quick).
// VacateHeadroom is raised until the consolidation fleet can hold well
// under half of the idle working sets, so the post-warmup steady state
// keeps thousands of home hosts under retry pressure.
func clusterStressConfig(opt Option) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Policy = cluster.FulltoPartial
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 9000, 1000, 12
	if opt.Quick {
		cfg.HomeHosts, cfg.ConsHosts = 900, 100
	}
	cfg.VMAlloc = 4 * units.GiB
	cfg.HostCap = 64 * units.GiB
	cfg.HostReserved = 4 * units.GiB
	cfg.VacateHeadroom = 0.88
	cfg.Seed = opt.Seed
	cfg.NoTelemetry = true
	return cfg
}

const (
	clusterWarmupTicks   = 4
	clusterMeasuredTicks = 6
)

// runPlannerStress builds one cluster, drives it through the warmup to
// steady state, then times the measured all-idle ticks.
func runPlannerStress(cfg cluster.Config) (PlannerStressRun, error) {
	s := simtime.New()
	c, err := cluster.New(s, cfg)
	if err != nil {
		return PlannerStressRun{}, err
	}
	idle := make([]bool, len(c.VMs))
	tick := func() error {
		if err := c.Tick(idle); err != nil {
			return err
		}
		s.RunUntil(s.Now().Add(cfg.PlanEvery))
		return nil
	}
	for i := 0; i < clusterWarmupTicks; i++ {
		if err := tick(); err != nil {
			return PlannerStressRun{}, err
		}
	}
	picks0, cands0 := c.Planner.Picks, c.Planner.Candidates
	t0 := time.Now()
	for i := 0; i < clusterMeasuredTicks; i++ {
		if err := tick(); err != nil {
			return PlannerStressRun{}, err
		}
	}
	elapsed := time.Since(t0)
	c.FlushEpisodes()
	d := c.Digest()
	picks, cands := c.Planner.Picks-picks0, c.Planner.Candidates-cands0
	return PlannerStressRun{
		ElapsedSec:        elapsed.Seconds(),
		Ticks:             clusterMeasuredTicks,
		Picks:             picks,
		Candidates:        cands,
		CandidatesPerPick: float64(cands) / float64(picks),
		PlansPerSec:       float64(picks) / elapsed.Seconds(),
		Fingerprint:       fmt.Sprintf("%#x", d.Fingerprint()),
	}, nil
}

// clusterAgents and clusterSweeps size the actuation half.
func clusterAgentFleet(opt Option) (agents, sweeps int) {
	if opt.Quick {
		return 24, 8
	}
	return 160, 25
}

// runActuation starts an in-process agent fleet once and times
// full-fleet stats sweeps at the given fan-out limit.
func runActuation(m *agent.Manager, mode string, limit, hosts, sweeps int) (ActuationRun, error) {
	m.SetFanOutLimit(limit)
	lat := make([]float64, 0, sweeps)
	t0 := time.Now()
	for i := 0; i < sweeps; i++ {
		s0 := time.Now()
		scans, err := m.RefreshStats()
		if err != nil {
			return ActuationRun{}, err
		}
		for _, sc := range scans {
			if sc.Err != nil {
				return ActuationRun{}, fmt.Errorf("sweep %d: host %s: %w", i, sc.Name, sc.Err)
			}
		}
		lat = append(lat, time.Since(s0).Seconds()*1e3)
	}
	total := time.Since(t0).Seconds()
	sort.Float64s(lat)
	pct := func(p float64) float64 { return lat[int(p*float64(len(lat)-1)+0.5)] }
	return ActuationRun{
		Mode:        mode,
		FanOutLimit: limit,
		Sweeps:      sweeps,
		P50Ms:       pct(0.50),
		P99Ms:       pct(0.99),
		StatsPerSec: float64(hosts*sweeps) / total,
	}, nil
}

// ClusterStress runs the full control-plane stress benchmark.
func ClusterStress(opt Option) (ClusterBench, error) {
	cfg := clusterStressConfig(opt)
	out := ClusterBench{
		Experiment:  "cluster",
		BenchMeta:   benchMeta(),
		Hosts:       cfg.HomeHosts + cfg.ConsHosts,
		VMs:         cfg.HomeHosts * cfg.VMsPerHost,
		WarmupTicks: clusterWarmupTicks,
		Seed:        opt.Seed,
		Note: fmt.Sprintf("planner phase: %d warmup ticks to consolidation steady state, %d measured all-idle ticks under saturation retry pressure, one rep; "+
			"actuation phase reported not gated (batching hides RTT, not compute)",
			clusterWarmupTicks, clusterMeasuredTicks),
	}

	plan, err := runPlannerStress(cfg)
	if err != nil {
		return ClusterBench{}, err
	}
	out.Planner = plan

	agents, sweeps := clusterAgentFleet(opt)
	out.Agents = agents
	m, closeFleet, err := startAgentFleet(agents)
	if err != nil {
		return ClusterBench{}, err
	}
	defer closeFleet()
	for _, mode := range []struct {
		name  string
		limit int
	}{{"serial", 1}, {"batched", 32}} {
		run, err := runActuation(m, mode.name, mode.limit, agents, sweeps)
		if err != nil {
			return ClusterBench{}, err
		}
		out.Actuation = append(out.Actuation, run)
	}

	ratio := plan.PlansPerSec / clusterPlansPerSecPerCore
	out.MeasuredGate = Gate{
		Metric: "planner_plans_per_sec",
		Comparison: fmt.Sprintf("plans_per_sec >= %d AND candidates_per_pick <= %.2f",
			clusterPlansPerSecPerCore, clusterCandidatesPerPick),
		Ratio:      ratio,
		NoiseFloor: 1.0,
		Pass:       ratio >= 1.0 && plan.CandidatesPerPick <= clusterCandidatesPerPick,
	}
	return out, nil
}

// startAgentFleet brings up n in-process host agents on loopback plus a
// manager connected to all of them.
func startAgentFleet(n int) (*agent.Manager, func(), error) {
	secret := []byte("cluster-bench-secret")
	m := agent.NewManager()
	var agents []*agent.Agent
	closeAll := func() {
		m.Close()
		for _, a := range agents {
			a.Close()
		}
	}
	for i := 0; i < n; i++ {
		a := agent.New(fmt.Sprintf("bench-%04d", i), secret, nil)
		if err := a.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			closeAll()
			return nil, nil, err
		}
		agents = append(agents, a)
		if err := m.AddHost(a.Name, a.Addr()); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return m, closeAll, nil
}

// ClusterStressReport renders the benchmark as plain text for
// oasis-bench -experiment cluster.
func ClusterStressReport(opt Option) Report {
	var b strings.Builder
	r, err := ClusterStress(opt)
	if err != nil {
		fmt.Fprintf(&b, "benchmark failed: %v\n", err)
		return Report{ID: "cluster", Title: "ERROR", Text: b.String()}
	}
	fmt.Fprintf(&b, "%d hosts, %d VMs (seed %d); %d warmup + %d measured ticks\n",
		r.Hosts, r.VMs, r.Seed, r.WarmupTicks, clusterMeasuredTicks)
	p := r.Planner
	fmt.Fprintf(&b, "planner: %d picks in %.2fs = %.0f plans/sec, %d candidates examined (%.2f per pick), fingerprint %s\n",
		p.Picks, p.ElapsedSec, p.PlansPerSec, p.Candidates, p.CandidatesPerPick, p.Fingerprint)
	fmt.Fprintf(&b, "%-10s %8s %8s %10s %10s %14s\n", "actuation", "limit", "sweeps", "p50", "p99", "stats/sec")
	for _, a := range r.Actuation {
		fmt.Fprintf(&b, "%-10s %8d %8d %8.1fms %8.1fms %14.0f\n",
			a.Mode, a.FanOutLimit, a.Sweeps, a.P50Ms, a.P99Ms, a.StatsPerSec)
	}
	fmt.Fprintf(&b, "measured gate (%s): ratio %.2f vs bar %.2f: %s\n",
		r.MeasuredGate.Comparison, r.MeasuredGate.Ratio, r.MeasuredGate.NoiseFloor, gateWord(r.MeasuredGate))
	return Report{ID: "cluster", Title: "Fleet-scale control-plane stress benchmark", Text: b.String()}
}
