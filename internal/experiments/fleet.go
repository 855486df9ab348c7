package experiments

import (
	"fmt"
	"strings"
	"time"

	"oasis/internal/cluster"
	"oasis/internal/sim"
	"oasis/internal/sim/scenario"
	"oasis/internal/trace"
)

// The fleet benchmark's gate. What bounds how much of the design space a
// sweep can afford is user-days per second per core, so that is what is
// floored: the one-worker run must reach fleetUsersPerSecPerCore user-days
// per second of the process's CPU time (getrusage), not of wall clock. A
// loaded box stretches the wall clock of a run but not the CPU time it
// takes, and the floor gates the code, not the machine's load (wall
// clock failed it on a loaded 2-CPU box at 24.6k with nothing wrong).
// The collector's threads count too, so on a quiet box the CPU reading
// is the stricter of the two. The floor sits between what the simulator
// did before its cell state became dense (≈ 18k users/s on the 2-core
// sandbox the artifact is recorded on) and what it does since (≈ 45k
// there), so a return of per-flip or per-VM rescans fails it while a
// slower CI runner does not.
// Parallelism is gated separately and only where it can show: with at
// least fleetScalingMinCores cores, the widest run must reach
// fleetScalingFloor times the one-worker throughput.
const (
	fleetUsersPerSecPerCore = 25_000
	fleetScalingMinCores    = 4
	fleetScalingFloor       = 2.0
)

// FleetRun is one worker count's execution of the same fleet: wall
// clock, throughput, and the result fingerprint that must match every
// other worker count bit for bit.
type FleetRun struct {
	Workers     int     `json:"workers"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	UsersPerSec float64 `json:"users_per_sec"`
	// CPUSec is the process CPU time the run took (user and system, all
	// threads); UsersPerCPUSec is users over it, what the gate floors.
	CPUSec         float64 `json:"cpu_sec"`
	UsersPerCPUSec float64 `json:"users_per_cpu_sec"`
	Fingerprint    string  `json:"fingerprint"`
}

// FleetBench is the fleet-simulator benchmark artifact; oasis-bench
// -json with -experiment sim writes it as BENCH_sim.json. One
// million-user day is simulated at each worker count in WorkerRuns; the
// gate demands the per-core floor, the scaling ratio where the machine
// has the cores to show one, AND every fingerprint identical — per-core
// speed and the serial-vs-parallel bit-identity proof in one artifact.
type FleetBench struct {
	Experiment string `json:"experiment"`
	BenchMeta
	// WorkerScaling is the widest run's throughput over the one-worker
	// run's. MeasuredGate.Comparison says whether the gate held it to
	// fleetScalingFloor, which takes fleetScalingMinCores cores.
	WorkerScaling float64 `json:"worker_scaling"`

	Users        int        `json:"users"`
	Cells        int        `json:"cells"`
	UsersPerCell int        `json:"users_per_cell"`
	Kind         string     `json:"kind"`
	Seed         uint64     `json:"seed"`
	SavingsPct   float64    `json:"savings_pct"`
	WorkerRuns   []FleetRun `json:"worker_runs"`
	BitIdentical bool       `json:"bit_identical"`
	MeasuredGate Gate       `json:"measured_gate"`
	Note         string     `json:"note"`
}

// GateResult returns the measured acceptance gate (for oasis-bench's
// exit status).
func (b FleetBench) GateResult() Gate { return b.MeasuredGate }

// fleetBenchWorkers are the worker counts the benchmark proves
// bit-identical: the serial reference, a small pool, and an
// oversubscribed one.
var fleetBenchWorkers = []int{1, 2, 8}

// Fleet runs the million-user fleet benchmark (100k under -quick): one
// simulated day at each worker count, single rep each — the runs are
// minutes long, so best-of-N would triple an already-sized measurement
// for little signal.
func Fleet(opt Option) (FleetBench, error) {
	users := 1_000_000
	if opt.Quick {
		users = 100_000
	}
	cfg := sim.FleetConfig{
		Cell:  cluster.DefaultConfig(),
		Kind:  trace.Weekday,
		Users: users,
		Seed:  opt.Seed,
	}

	out := FleetBench{
		Experiment:   "sim",
		BenchMeta:    benchMeta(),
		Users:        users,
		Cells:        cfg.Cells(),
		UsersPerCell: cfg.UsersPerCell(),
		Kind:         cfg.Kind.String(),
		Seed:         opt.Seed,
	}
	cores := min(out.NumCPU, out.GOMAXPROCS)
	gateScaling := cores >= fleetScalingMinCores
	// fleetBenchWorkers starts at the serial reference and ends at the
	// widest pool.
	widest := fleetBenchWorkers[len(fleetBenchWorkers)-1]
	comparison := fmt.Sprintf("users_per_cpu_sec at 1 worker >= %d AND fingerprints identical across workers %v", fleetUsersPerSecPerCore, fleetBenchWorkers)
	out.Note = fmt.Sprintf("one rep of %d user-days per worker count", users)
	if gateScaling {
		comparison += fmt.Sprintf(" AND users_per_sec at %d workers >= %.1f * that", widest, fleetScalingFloor)
	} else {
		out.Note += fmt.Sprintf("; worker scaling is reported, not gated, on %d core(s): the gate needs %d", cores, fleetScalingMinCores)
	}

	var first uint64
	out.BitIdentical = true
	for i, workers := range fleetBenchWorkers {
		c := cfg
		c.Workers = workers
		cpu0 := processCPU()
		res, err := sim.RunFleet(c)
		if err != nil {
			return FleetBench{}, err
		}
		cpu := (processCPU() - cpu0).Seconds()
		fp := res.Fingerprint()
		if i == 0 {
			first = fp
			out.SavingsPct = res.SavingsPct
		} else if fp != first {
			out.BitIdentical = false
		}
		out.WorkerRuns = append(out.WorkerRuns, FleetRun{
			Workers:        workers,
			ElapsedSec:     res.Elapsed.Seconds(),
			UsersPerSec:    float64(res.Users) / res.Elapsed.Seconds(),
			CPUSec:         cpu,
			UsersPerCPUSec: float64(res.Users) / cpu,
			Fingerprint:    fmt.Sprintf("%#x", fp),
		})
	}

	serial := out.WorkerRuns[0]
	out.WorkerScaling = out.WorkerRuns[len(out.WorkerRuns)-1].UsersPerSec / serial.UsersPerSec
	perCore := serial.UsersPerCPUSec
	if serial.CPUSec <= 0 {
		perCore = serial.UsersPerSec // no CPU clock on this platform
	}
	ratio := perCore / fleetUsersPerSecPerCore
	out.MeasuredGate = Gate{
		Metric:     "fleet_users_per_sec_per_core",
		Comparison: comparison,
		Ratio:      ratio,
		NoiseFloor: 1.0,
		Pass:       ratio >= 1.0 && out.BitIdentical && (!gateScaling || out.WorkerScaling >= fleetScalingFloor),
	}
	return out, nil
}

// fleetReportUsers sizes the plain-text experiments so `oasis-bench`
// stays interactive; the million-user measurement lives in the JSON
// artifact (BENCH_sim.json).
func fleetReportUsers(opt Option, full int) int {
	if opt.Quick {
		return full / 5
	}
	return full
}

// FleetReport renders the deterministic parallel fleet experiment: the
// same fleet at each worker count, wall clock and fingerprints side by
// side.
func FleetReport(opt Option) Report {
	users := fleetReportUsers(opt, 18_000)
	cfg := sim.FleetConfig{
		Cell:  cluster.DefaultConfig(),
		Kind:  trace.Weekday,
		Users: users,
		Seed:  opt.Seed,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d users in %d cells of %d (%v, seed %d)\n",
		users, cfg.Cells(), cfg.UsersPerCell(), cfg.Kind, cfg.Seed)
	fmt.Fprintf(&b, "%-10s %12s %14s %20s\n", "workers", "elapsed", "users/sec", "fingerprint")
	var first uint64
	var savings float64
	var peak int64
	identical := true
	for i, workers := range fleetBenchWorkers {
		c := cfg
		c.Workers = workers
		res, err := sim.RunFleet(c)
		if err != nil {
			fmt.Fprintf(&b, "workers=%d failed: %v\n", workers, err)
			return Report{ID: "fleet", Title: "ERROR", Text: b.String()}
		}
		fp := res.Fingerprint()
		if i == 0 {
			first, savings, peak = fp, res.SavingsPct, res.PeakActive
		}
		identical = identical && fp == first
		fmt.Fprintf(&b, "%-10d %12v %14.0f %#20x\n",
			workers, res.Elapsed.Round(time.Millisecond), float64(res.Users)/res.Elapsed.Seconds(), fp)
	}
	fmt.Fprintf(&b, "savings %.1f%%, peak active %d\n", savings, peak)
	verdict := "bit-identical across worker counts"
	if !identical {
		verdict = "FINGERPRINTS DIVERGED — determinism broken"
	}
	fmt.Fprintf(&b, "%s\n", verdict)
	return Report{ID: "fleet", Title: "Deterministic parallel fleet simulation", Text: b.String()}
}

// ScenariosReport runs every named scenario in the library at a reduced
// user count and tabulates the fleet-level outcomes side by side.
func ScenariosReport(opt Option) Report {
	users := fleetReportUsers(opt, 3_600)
	var b strings.Builder
	fmt.Fprintf(&b, "%d users per scenario, 2 workers, seed %d\n", users, opt.Seed)
	fmt.Fprintf(&b, "%-20s %9s %12s %13s %9s %20s\n",
		"scenario", "savings", "peak active", "availability", "outages", "fingerprint")
	for _, name := range scenario.Names() {
		s, _ := scenario.ByName(name)
		s.Fleet.Users = users
		s.Fleet.Workers = 2
		s.Fleet.Seed = opt.Seed
		res, err := sim.RunFleet(s.Fleet)
		if err != nil {
			fmt.Fprintf(&b, "%s failed: %v\n", name, err)
			return Report{ID: "scenarios", Title: "ERROR", Text: b.String()}
		}
		fmt.Fprintf(&b, "%-20s %8.1f%% %12d %12.5f%% %9d %#20x\n",
			name, res.SavingsPct, res.PeakActive, 100*res.Availability,
			res.Digest.MemServerOutages, res.Fingerprint())
	}
	fmt.Fprintf(&b, "scenario library: oasis-sim -scenario list; spec grammar in README\n")
	return Report{ID: "scenarios", Title: "Scenario library sweep", Text: b.String()}
}

// AblationConsolidationMemory compares where the consolidated VMs' memory
// lives: the paper's per-host Atom memory server against in-place
// ballooning (no memory server, disk-backed faults, reinflation
// pushback) and a heterogeneous far-memory tier (faster faults, tier
// power, larger resident set) — the PAPERS.md alternatives, run as fleet
// scenarios under identical load.
func AblationConsolidationMemory(opt Option) Report {
	users := fleetReportUsers(opt, 3_600)
	var b strings.Builder
	fmt.Fprintf(&b, "%d users, identical traces and seed (%d); only the memory backend differs\n", users, opt.Seed)
	fmt.Fprintf(&b, "%-34s %9s %13s %13s\n", "consolidated memory backend", "savings", "availability", "oasis kWh")
	rows := []struct{ label, name string }{
		{"per-host memory server (paper)", ""},
		{"ballooning in place", "ballooning"},
		{"heterogeneous far-memory tier", "hmm-tier"},
	}
	for _, row := range rows {
		fc := sim.FleetConfig{
			Cell: cluster.DefaultConfig(),
			Kind: trace.Weekday,
		}
		if row.name != "" {
			s, ok := scenario.ByName(row.name)
			if !ok {
				fmt.Fprintf(&b, "%s: scenario missing\n", row.name)
				return Report{ID: "ab-mem", Title: "ERROR", Text: b.String()}
			}
			fc = s.Fleet
		}
		fc.Users = users
		fc.Workers = 2
		fc.Seed = opt.Seed
		res, err := sim.RunFleet(fc)
		if err != nil {
			fmt.Fprintf(&b, "%s failed: %v\n", row.label, err)
			return Report{ID: "ab-mem", Title: "ERROR", Text: b.String()}
		}
		fmt.Fprintf(&b, "%-34s %8.1f%% %12.5f%% %13.1f\n",
			row.label, res.SavingsPct, 100*res.Availability, float64(res.OasisMicroJ)/1e6/3.6e6)
	}
	fmt.Fprintf(&b, "ballooning trades the Atom server's %0.1f W for pricier disk-backed faults;\n", 42.2)
	fmt.Fprintf(&b, "the far-memory tier buys fault latency with resident-set growth (scenario\n")
	fmt.Fprintf(&b, "descriptions record the modeling assumptions)\n")
	return Report{ID: "ab-mem", Title: "Ablation: consolidated-memory backend (ballooning / far-memory tier)", Text: b.String()}
}

// FleetBenchReport renders the JSON benchmark as plain text for
// oasis-bench -experiment sim (quick by default sizing rules: pass
// -quick to run 100k users instead of the full million).
func FleetBenchReport(opt Option) Report {
	var b strings.Builder
	r, err := Fleet(opt)
	if err != nil {
		fmt.Fprintf(&b, "benchmark failed: %v\n", err)
		return Report{ID: "sim", Title: "ERROR", Text: b.String()}
	}
	fmt.Fprintf(&b, "%d users in %d cells of %d (%s, seed %d), savings %.1f%%\n",
		r.Users, r.Cells, r.UsersPerCell, r.Kind, r.Seed, r.SavingsPct)
	fmt.Fprintf(&b, "%-10s %12s %14s %10s %16s %20s\n", "workers", "elapsed", "users/sec", "cpu", "users/cpu-sec", "fingerprint")
	for _, run := range r.WorkerRuns {
		fmt.Fprintf(&b, "%-10d %11.1fs %14.0f %9.1fs %16.0f %20s\n",
			run.Workers, run.ElapsedSec, run.UsersPerSec, run.CPUSec, run.UsersPerCPUSec, run.Fingerprint)
	}
	fmt.Fprintf(&b, "bit-identical: %v; %d CPUs, GOMAXPROCS %d; widest/serial %.2fx\n",
		r.BitIdentical, r.NumCPU, r.GOMAXPROCS, r.WorkerScaling)
	fmt.Fprintf(&b, "measured gate (%s): ratio %.3f vs floor %.2f: %s\n",
		r.MeasuredGate.Comparison, r.MeasuredGate.Ratio, r.MeasuredGate.NoiseFloor, gateWord(r.MeasuredGate))
	return Report{ID: "sim", Title: "Million-user fleet benchmark", Text: b.String()}
}
