package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"oasis/internal/cluster"
	"oasis/internal/metrics"
	"oasis/internal/rng"
	"oasis/internal/simtime"
	"oasis/internal/telemetry"
	"oasis/internal/trace"
)

// Fleet-scale simulation. The ROADMAP's north star is millions of
// simulated users; one rack ("cell": HomeHosts homes of VMsPerHost VMs
// plus ConsHosts consolidation hosts) is the paper's coupling domain —
// the manager never migrates across racks — so a fleet is an array of
// independent cells and parallelism shards by whole cells.
//
// Determinism is structural, not lucky:
//
//   - Every cell derives its seeds from (FleetConfig.Seed, cell index)
//     and every user's trace from (trace base, global user index), so
//     cell k's run is a pure function of the config, whichever worker
//     executes it, in whatever order.
//   - Workers store each cell's reduced result into a slice slot indexed
//     by cell; the merge is a serial fold over that slice in cell order.
//   - Everything merged is integer (micro-joules, micro-unit sample
//     digests, counts), so addition is associative and the fold equals
//     any other grouping bit for bit.
//
// RunFleet with Workers=1 runs the cells in a plain loop on the calling
// goroutine — the serial path — and must produce the same Fingerprint as
// any parallel worker count. The golden test pins that.

// FleetConfig describes a fleet run.
type FleetConfig struct {
	// Cell is the per-rack cluster template. Cell.Seed is ignored; each
	// cell derives its own seed. Cell.NoTelemetry is forced on for
	// worker cells (the fleet layer publishes merged aggregates).
	Cell cluster.Config

	// Kind selects the user-day kind every cell replays.
	Kind trace.DayKind

	// Users is the total simulated user count, one user per VM. It is
	// rounded up to whole cells (Cell.HomeHosts * Cell.VMsPerHost users
	// each, 900 under the paper's sizing).
	Users int

	// Workers is the number of cells simulated concurrently. <=0 means
	// GOMAXPROCS; 1 is the serial reference path.
	Workers int

	// Seed drives every stochastic choice in the fleet.
	Seed uint64

	// Zones spreads cells across timezones: cell i's users replay their
	// local-time day rotated by Zones[i%len(Zones)] five-minute
	// intervals (UTC offset / 5 min; +96 = UTC+8). Empty means one zone
	// at UTC.
	Zones []int

	// Flash crowd: at interval FlashAt, FlashFrac of every cell's users
	// go (and stay) active for FlashLen intervals, on top of their trace
	// activity — a product launch hitting the whole fleet at one wall
	// clock instant. FlashLen <= 0 disables.
	FlashAt   int
	FlashLen  int
	FlashFrac float64
}

// UsersPerCell returns the fleet's cell granularity.
func (c *FleetConfig) UsersPerCell() int {
	return c.Cell.HomeHosts * c.Cell.VMsPerHost
}

// Cells returns how many cells the configured user count needs.
func (c *FleetConfig) Cells() int {
	per := c.UsersPerCell()
	if per <= 0 || c.Users <= 0 {
		return 0
	}
	return (c.Users + per - 1) / per
}

// FleetResult is the deterministic merge of every cell's day.
type FleetResult struct {
	Users   int `json:"users"`
	Cells   int `json:"cells"`
	Workers int `json:"workers"`

	Kind trace.DayKind `json:"kind"`

	// Energy in integer micro-joules (per-cell readings rounded once,
	// then summed as int64).
	BaselineMicroJ int64 `json:"baseline_microj"`
	OasisMicroJ    int64 `json:"oasis_microj"`

	// SavingsPct is derived from the integer totals.
	SavingsPct float64 `json:"savings_pct"`

	// Per-interval fleet series (sums over cells) and their peak.
	ActiveSeries  []int64 `json:"-"`
	PoweredSeries []int64 `json:"-"`
	PeakActive    int64   `json:"peak_active"`

	// Digest is the merged cluster digest of every cell.
	Digest cluster.StatsDigest `json:"digest"`

	// Availability is derived from the digest's outage accounting.
	Availability float64 `json:"availability"`

	// Elapsed is the wall-clock cost of the run. It is reporting only
	// and excluded from Fingerprint.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Fingerprint reduces the result's simulation-visible state (energies,
// series, merged digest — everything except wall clock and worker
// count) to one uint64. Equal fingerprints across worker counts are the
// fleet's bit-identity proof.
func (r *FleetResult) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(r.Users))
	put(int64(r.Cells))
	put(int64(r.Kind))
	put(r.BaselineMicroJ)
	put(r.OasisMicroJ)
	for _, v := range r.ActiveSeries {
		put(v)
	}
	for _, v := range r.PoweredSeries {
		put(v)
	}
	put(r.PeakActive)
	put(int64(r.Digest.Fingerprint()))
	return h.Sum64()
}

// cellResult is one cell's day reduced to integers.
type cellResult struct {
	baselineMicroJ int64
	oasisMicroJ    int64
	activeSeries   [trace.IntervalsPerDay]int64
	poweredSeries  [trace.IntervalsPerDay]int64
	digest         cluster.StatsDigest
}

// fleetTel is the fleet layer's own telemetry: atomic progress counters
// workers bump as cells finish, plus merged headline gauges published
// once after the fold. Observation-only like every other gauge in the
// simulator — nothing reads telemetry back into the simulation, so
// results are bit-identical scraped, ignored, or disabled.
type fleetTel struct {
	cellsDone *telemetry.Gauge
	users     *telemetry.Gauge
	workers   *telemetry.Gauge
	savings   *telemetry.Gauge
	merges    *telemetry.Gauge
}

func newFleetTel() *fleetTel {
	r := telemetry.Default
	return &fleetTel{
		cellsDone: r.Gauge("oasis_sim_fleet_cells_done",
			"Cells (independent racks) completed by the current fleet run."),
		users: r.Gauge("oasis_sim_fleet_users",
			"Total simulated users of the current fleet run."),
		workers: r.Gauge("oasis_sim_fleet_workers",
			"Worker goroutines simulating cells concurrently."),
		savings: r.Gauge("oasis_sim_fleet_savings_percent",
			"Energy savings of the last merged fleet run vs the always-on baseline."),
		merges: r.Gauge("oasis_sim_fleet_merges_total",
			"Cell digests folded into fleet results by this process."),
	}
}

// RunFleet simulates cfg.Users users for one day and merges the cells
// deterministically. See the package comment above for the identity
// argument; TestFleetGoldenDigest and TestFleetWorkerIdentity pin it.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	cells := cfg.Cells()
	if cells == 0 {
		return nil, fmt.Errorf("sim: fleet needs Users > 0 and a sized cell template")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	if cfg.FlashLen > 0 && (cfg.FlashFrac < 0 || cfg.FlashFrac > 1) {
		return nil, fmt.Errorf("sim: FlashFrac %v outside [0,1]", cfg.FlashFrac)
	}

	tel := newFleetTel()
	tel.users.Set(float64(cfg.Users))
	tel.workers.Set(float64(workers))
	tel.cellsDone.Set(0)

	start := time.Now()
	results := make([]*cellResult, cells)

	if workers == 1 {
		// Serial reference path: a plain loop, no goroutines.
		var sc cellScratch
		for i := 0; i < cells; i++ {
			cr, err := runCell(&cfg, i, &sc)
			if err != nil {
				return nil, err
			}
			results[i] = cr
			tel.cellsDone.Add(1)
		}
	} else {
		var (
			wg       sync.WaitGroup
			errOnce  sync.Once
			firstErr error
			next     = make(chan int)
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc cellScratch
				for i := range next {
					cr, err := runCell(&cfg, i, &sc)
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						continue
					}
					results[i] = cr
					tel.cellsDone.Add(1)
				}
			}()
		}
		for i := 0; i < cells; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	// Deterministic merge: fold the per-cell results in cell order.
	// Integer addition throughout, so this equals the serial path's fold
	// exactly, not approximately.
	res := &FleetResult{
		Users:         cfg.Users,
		Cells:         cells,
		Workers:       workers,
		Kind:          cfg.Kind,
		ActiveSeries:  make([]int64, trace.IntervalsPerDay),
		PoweredSeries: make([]int64, trace.IntervalsPerDay),
	}
	for _, cr := range results {
		res.BaselineMicroJ += cr.baselineMicroJ
		res.OasisMicroJ += cr.oasisMicroJ
		for iv := 0; iv < trace.IntervalsPerDay; iv++ {
			res.ActiveSeries[iv] += cr.activeSeries[iv]
			res.PoweredSeries[iv] += cr.poweredSeries[iv]
		}
		res.Digest.Merge(cr.digest)
		tel.merges.Add(1)
	}
	for _, v := range res.ActiveSeries {
		if v > res.PeakActive {
			res.PeakActive = v
		}
	}
	if res.BaselineMicroJ > 0 {
		res.SavingsPct = (1 - float64(res.OasisMicroJ)/float64(res.BaselineMicroJ)) * 100
	}
	totalVMSeconds := float64(cells*cfg.UsersPerCell()) * simtime.Day.Seconds()
	unavailable := float64(res.Digest.OutageRecovery.SumMicros) / 1e6
	res.Availability = 1 - unavailable/totalVMSeconds
	if res.Availability < 0 {
		res.Availability = 0
	}
	res.Elapsed = time.Since(start)
	tel.savings.Set(res.SavingsPct)
	return res, nil
}

// Per-purpose salts for substream derivation, so the trace, flash-crowd
// selection and cluster seeds never collide.
const (
	saltTrace = 0x74726163 // "trac"
	saltFlash = 0x666c7368 // "flsh"
	saltCell  = 0x63656c6c // "cell"
)

// cellScratch is what one worker's cell-days reuse, each from the last:
// the day's activity rows, and the backing arrays of the cluster's
// samples (cluster.Stats), lent to each new cluster and taken back once
// its digest is made. A worker owns one, so nothing is shared.
type cellScratch struct {
	rows    []bool
	samples [3][]float64
}

// statSamples returns the samples of st that a cellScratch lends arrays.
func statSamples(st *cluster.Stats) [3]*metrics.Sample {
	return [3]*metrics.Sample{&st.DelaySample, &st.ConsRatio, &st.OutageRecovery}
}

// runCell simulates one cell's day in sc. Pure function of (cfg, cell):
// all randomness derives from mixed seeds, the cluster's telemetry
// mirror is disabled, every row of sc.rows is written before it is
// read, and the returned result is already reduced to integers.
func runCell(cfg *FleetConfig, cell int, sc *cellScratch) (*cellResult, error) {
	ccfg := cfg.Cell
	ccfg.Seed = rng.Mix64(rng.Mix64(cfg.Seed, saltCell), uint64(cell))
	ccfg.NoTelemetry = true

	s := simtime.New()
	cl, err := cluster.New(s, ccfg)
	if err != nil {
		return nil, fmt.Errorf("sim: cell %d: %w", cell, err)
	}
	nVMs := len(cl.VMs)
	for i, smp := range statSamples(&cl.Stats) {
		smp.Reset(sc.samples[i])
	}

	// Each VM is one user: its day derives from the global user index,
	// rotated into the cell's timezone. The fleet's memory stays O(cell
	// size x workers) no matter how many users the run covers.
	zone := 0
	if len(cfg.Zones) > 0 {
		zone = cfg.Zones[cell%len(cfg.Zones)]
	}
	traceBase := rng.Mix64(cfg.Seed, saltTrace)
	flashBase := rng.Mix64(cfg.Seed, saltFlash)
	userBase := uint64(cell) * uint64(cfg.UsersPerCell())
	if n := trace.IntervalsPerDay * nVMs; len(sc.rows) != n {
		sc.rows = make([]bool, n)
	}
	rows := sc.rows
	var block [userBlock]trace.UserDay
	for lo := 0; lo < nVMs; lo += userBlock {
		days := block[:min(userBlock, nVMs-lo)]
		for j := range days {
			user := userBase + uint64(lo+j)
			days[j] = trace.UserDayAt(traceBase, user, cfg.Kind).Rotate(zone)
			if cfg.FlashLen > 0 && float64(rng.Mix64(flashBase, user)>>11)/(1<<53) < cfg.FlashFrac {
				for iv := max(cfg.FlashAt, 0); iv < min(cfg.FlashAt+cfg.FlashLen, trace.IntervalsPerDay); iv++ {
					days[j].Active[iv] = true
				}
			}
		}
		setUsers(rows, lo, days)
	}

	cr := &cellResult{}
	baselineJ, err := runDay(s, cl, 0, rows, func(iv, nActive int) {
		cr.activeSeries[iv] = int64(nActive)
		cr.poweredSeries[iv] = int64(cl.PoweredHosts())
	})
	if err != nil {
		return nil, fmt.Errorf("sim: cell %d %w", cell, err)
	}
	cl.FlushEpisodes()

	cr.baselineMicroJ = int64(math.Round(baselineJ * 1e6))
	cr.digest = cl.Digest()
	cr.oasisMicroJ = cr.digest.EnergyMicroJ
	for i, smp := range statSamples(&cl.Stats) {
		sc.samples[i] = smp.Raw()
	}
	return cr, nil
}
