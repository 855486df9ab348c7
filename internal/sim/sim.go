// Package sim runs the trace-driven cluster-day simulations of §5: it
// binds a synthetic activity trace to a configured Oasis cluster, ticks
// the manager every five minutes for a simulated day, and reports the
// energy, traffic, delay and consolidation measurements behind Figures
// 7-12 and Table 3.
package sim

import (
	"fmt"
	"time"

	"oasis/internal/cluster"
	"oasis/internal/metrics"
	"oasis/internal/rng"
	"oasis/internal/simtime"
	"oasis/internal/telemetry"
	"oasis/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	Cluster cluster.Config
	// Kind selects weekday or weekend user-days.
	Kind trace.DayKind
	// TraceSeed seeds the synthetic trace corpus and sampling. Distinct
	// runs of a multi-run experiment vary this.
	TraceSeed uint64
	// CorpusUsers is the size of the synthetic corpus sampled from; the
	// paper samples 900 user-days from a 22-user corpus. Zero defaults
	// to 3x the VM count worth of generated user-days.
	CorpusUsers int
}

// Result is one simulated day's outcome.
type Result struct {
	Policy    cluster.Policy
	Kind      trace.DayKind
	ConsHosts int

	// Energy.
	BaselineJoules float64
	OasisJoules    float64
	SavingsPct     float64

	// Per-interval series (Figure 7).
	ActiveSeries  []int
	PoweredSeries []int
	PeakActive    int

	// Manager statistics (Figures 9-11 inputs).
	Stats cluster.Stats

	// Availability is the fraction of aggregate VM-time not lost to
	// injected memory-server outages (1.0 when fault injection is off;
	// see cluster.Config.MemServerMTBF).
	Availability float64

	// Events is the manager's decision log, populated when
	// Cluster.EventLogSize > 0.
	Events []cluster.Event
}

// Run simulates one day.
func Run(cfg Config) (*Result, error) {
	s := simtime.New()
	cl, err := cluster.New(s, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	nVMs := len(cl.VMs)

	// Build the trace: generate a corpus and sample one user-day per VM,
	// mirroring §5.1's sample-900-user-days-and-align procedure.
	tr := rng.New(cfg.TraceSeed ^ 0x6f617369) // "oasi"
	corpusN := cfg.CorpusUsers
	if corpusN <= 0 {
		corpusN = 3 * nVMs
	}
	corpus := trace.Generate(cfg.Kind, corpusN, tr)
	set := trace.Sample(corpus, nVMs, tr)

	res := &Result{
		Policy:    cfg.Cluster.Policy,
		Kind:      cfg.Kind,
		ConsHosts: cfg.Cluster.ConsHosts,
	}

	rows := make([]bool, trace.IntervalsPerDay*nVMs)
	setUsers(rows, 0, set.Days)
	res.BaselineJoules, err = runDay(s, cl, 0, rows, func(_, nActive int) {
		res.ActiveSeries = append(res.ActiveSeries, nActive)
		res.PoweredSeries = append(res.PoweredSeries, cl.PoweredHosts())
		res.PeakActive = max(res.PeakActive, nActive)
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl.FlushEpisodes()

	res.OasisJoules = cl.TotalEnergyJoules()
	if res.BaselineJoules > 0 {
		res.SavingsPct = (1 - res.OasisJoules/res.BaselineJoules) * 100
	}
	res.Stats = cl.Stats
	res.Availability = cl.Stats.Availability(nVMs, simtime.Day.Seconds())
	res.Events = cl.Events()
	publishRunTelemetry(res)
	return res, nil
}

// setUsers writes days into the rows of a day (see runDay), day j as
// VM lo+j. It takes the days userBlock at a time, so a block stays in
// cache while each row's stretch of it is written.
func setUsers(rows []bool, lo int, days []trace.UserDay) {
	n := len(rows) / trace.IntervalsPerDay
	for len(days) > 0 {
		block := days[:min(len(days), userBlock)]
		for iv := 0; iv < trace.IntervalsPerDay; iv++ {
			col := rows[iv*n+lo : iv*n+lo+len(block)]
			for j := range col {
				col[j] = block[j].Active[iv]
			}
		}
		lo, days = lo+len(block), days[len(block):]
	}
}

// userBlock is how many user-days setUsers transposes at a time: 64 of
// them (19 KiB) fit a core's L1 data cache.
const userBlock = 64

// runDay ticks cl through the day that starts at dayBase and returns
// that day's baseline energy: every home host stays powered, running its
// VMs locally (§5.3's normalisation). rows is the day's activity laid
// out once, one row per interval: interval iv's bits for cl's n VMs are
// rows[iv*n:(iv+1)*n], the slice its Tick reads. each sees every
// interval after its tick with the count of active VMs.
func runDay(s *simtime.Simulator, cl *cluster.Cluster, dayBase simtime.Time, rows []bool, each func(iv, nActive int)) (float64, error) {
	interval := time.Duration(trace.IntervalMinutes) * time.Minute
	n, homes, profile := len(cl.VMs), float64(cl.Cfg.HomeHosts), cl.Cfg.Profile
	baselineJ := 0.0
	for iv := 0; iv < trace.IntervalsPerDay; iv++ {
		s.RunUntil(dayBase + simtime.Time(iv)*simtime.Time(interval))
		if err := cl.Tick(rows[iv*n : (iv+1)*n]); err != nil {
			return 0, fmt.Errorf("interval %d: %w", iv, err)
		}
		nActive := cl.ActiveVMs()
		each(iv, nActive)
		if profile.VMHostingW > 0 {
			baselineJ += homes * profile.VMHostingW * interval.Seconds()
		} else {
			baselineJ += (homes*profile.IdleW + float64(nActive)*profile.PerActiveVMW) * interval.Seconds()
		}
	}
	s.RunUntil(dayBase + simtime.Day)
	return baselineJ, nil
}

// publishRunTelemetry posts a finished run's headline figures as
// oasis_sim_* gauges, labeled by policy and day kind so a sweep's runs
// stay apart in one scrape. Pure observation: it writes registry atomics
// and reads nothing back, so results are identical with telemetry
// scraped or ignored.
func publishRunTelemetry(res *Result) {
	l := []telemetry.Label{
		telemetry.L("policy", res.Policy.String()),
		telemetry.L("kind", res.Kind.String()),
	}
	telemetry.Default.Gauge("oasis_sim_savings_percent",
		"Energy savings of the last finished run vs the always-on baseline (§5.3).", l...).Set(res.SavingsPct)
	telemetry.Default.Gauge("oasis_sim_availability",
		"Fraction of aggregate VM-time not lost to injected memory-server outages (1 with fault injection off).", l...).Set(res.Availability)
	telemetry.Default.Gauge("oasis_sim_runs_completed",
		"Simulated days finished by this process, by policy and day kind.", l...).Add(1)
}

// Summary aggregates repeated runs (the paper averages five).
type Summary struct {
	Policy    cluster.Policy
	Kind      trace.DayKind
	ConsHosts int
	Savings   metrics.Welford
	Runs      []*Result
}

// RunN simulates n days with different seeds and aggregates savings.
func RunN(cfg Config, n int) (*Summary, error) {
	sum := &Summary{Policy: cfg.Cluster.Policy, Kind: cfg.Kind, ConsHosts: cfg.Cluster.ConsHosts}
	for i := 0; i < n; i++ {
		c := cfg
		c.TraceSeed = cfg.TraceSeed + uint64(i)*7919
		c.Cluster.Seed = cfg.Cluster.Seed + uint64(i)*104729
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		sum.Savings.Add(r.SavingsPct)
		sum.Runs = append(sum.Runs, r)
	}
	return sum, nil
}

// ContinuousResult is the outcome of a multi-day run where the cluster
// carries its state (placements, working sets, host power states) from
// one day into the next, rather than restarting cold.
type ContinuousResult struct {
	Days           []trace.DayKind
	BaselineJoules float64
	OasisJoules    float64
	SavingsPct     float64
	// DailySavings is the incremental savings of each day.
	DailySavings []float64
	Stats        cluster.Stats
}

// RunContinuous simulates the given sequence of days on one cluster
// without resetting state between them — a working week is
// []DayKind{Weekday x5, Weekend x2}. Each day samples a fresh set of
// user-days. This is the long-run stability check: placements and
// working-set bookkeeping must not drift or leak across days.
func RunContinuous(cfg Config, days []trace.DayKind) (*ContinuousResult, error) {
	s := simtime.New()
	cl, err := cluster.New(s, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	nVMs := len(cl.VMs)
	tr := rng.New(cfg.TraceSeed ^ 0x7765656b) // "week"
	corpusN := cfg.CorpusUsers
	if corpusN <= 0 {
		corpusN = 3 * nVMs
	}

	res := &ContinuousResult{Days: append([]trace.DayKind(nil), days...)}
	rows := make([]bool, trace.IntervalsPerDay*nVMs)
	prevOasis := 0.0
	for d, kind := range days {
		corpus := trace.Generate(kind, corpusN, tr)
		set := trace.Sample(corpus, nVMs, tr)
		setUsers(rows, 0, set.Days)
		dayBaselineJ, err := runDay(s, cl, simtime.Time(d)*simtime.Day, rows, func(int, int) {})
		if err != nil {
			return nil, fmt.Errorf("sim: day %d %w", d, err)
		}
		res.BaselineJoules += dayBaselineJ
		dayOasis := cl.TotalEnergyJoules() - prevOasis
		prevOasis = cl.TotalEnergyJoules()
		res.DailySavings = append(res.DailySavings, (1-dayOasis/dayBaselineJ)*100)
	}
	cl.FlushEpisodes()
	res.OasisJoules = cl.TotalEnergyJoules()
	if res.BaselineJoules > 0 {
		res.SavingsPct = (1 - res.OasisJoules/res.BaselineJoules) * 100
	}
	res.Stats = cl.Stats
	return res, nil
}

// WeekResult aggregates a working week: five weekdays and two weekend
// days.
type WeekResult struct {
	Weekday *Summary
	Weekend *Summary
	// SavingsPct is the energy-weighted weekly savings. The baseline is
	// identical for every day, so the 5:2 weighting of the per-day
	// percentages is exact.
	SavingsPct float64
}

// RunWeek simulates a full week: runsPerKind days of each kind are
// averaged, then combined 5:2.
func RunWeek(cfg Config, runsPerKind int) (*WeekResult, error) {
	wd := cfg
	wd.Kind = trace.Weekday
	wdSum, err := RunN(wd, runsPerKind)
	if err != nil {
		return nil, err
	}
	we := cfg
	we.Kind = trace.Weekend
	we.TraceSeed = cfg.TraceSeed + 7777
	weSum, err := RunN(we, runsPerKind)
	if err != nil {
		return nil, err
	}
	return &WeekResult{
		Weekday:    wdSum,
		Weekend:    weSum,
		SavingsPct: (5*wdSum.Savings.Mean() + 2*weSum.Savings.Mean()) / 7,
	}, nil
}
