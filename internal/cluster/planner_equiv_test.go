package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"oasis/internal/placement"
	"oasis/internal/rng"
	"oasis/internal/simtime"
	"oasis/internal/units"
)

// The indexed planner must make bit-identical placement decisions to the
// full-scan planner: same candidate sets, same RNG draws, therefore the
// same simulation history down to the digest fingerprint (which hashes
// every byte counter, op count, delay histogram and the simulator's
// event-history fingerprint). This is the property the CI gate runs —
// if the capacity index ever diverges from the scan's fit arithmetic,
// SimFingerprint catches the very first differing decision.

// equivConfig is a geometry small enough to run many (seed, policy)
// pairs but busy enough to exercise vacates, wakes, exchanges,
// exhaustions and bulk returns.
func equivConfig(policy Policy, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.HomeHosts = 6
	cfg.ConsHosts = 3
	cfg.VMsPerHost = 6
	cfg.VMAlloc = 4 * units.GiB
	cfg.HostCap = 32 * units.GiB
	cfg.HostReserved = 2 * units.GiB
	cfg.Seed = seed
	cfg.NoTelemetry = true
	return cfg
}

// useScanPlanner turns c into the oracle: without the capacity index
// (and the host change feed that maintains it) every pickConsHost walks
// all consolidation hosts and planVacate all home hosts.
func useScanPlanner(c *Cluster) {
	c.capIdx = nil
	for _, h := range c.Hosts {
		h.SetOnChange(nil)
	}
}

// runPlanner drives one cluster for ticks intervals with pseudo-random
// activity from its own deterministic stream (independent of the
// cluster's internal RNG), scaled by busy (0: every VM idle throughout),
// and returns the final digest fingerprint.
func runPlanner(t *testing.T, cfg Config, scan bool, ticks int, busy float64) (uint64, PlannerStats) {
	t.Helper()
	s := simtime.New()
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scan {
		useScanPlanner(c)
	}
	r := rng.New(cfg.Seed ^ 0xac711)
	active := make([]bool, len(c.VMs))
	for i := 0; i < ticks; i++ {
		// Vary the activity level tick to tick: quiet stretches trigger
		// vacates, bursts trigger conversions and wake-the-home returns.
		p := busy * (0.05 + 0.5*r.Float64())
		for j := range active {
			active[j] = r.Bool(p)
		}
		if err := c.Tick(active); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(s.Now().Add(cfg.PlanEvery))
	}
	c.FlushEpisodes()
	d := c.Digest()
	return d.Fingerprint(), c.Planner
}

// TestIndexedPlannerMatchesScan is the planner-equivalence gate: for
// every policy, across seeds and placement strategies, the indexed and
// scan planners produce the same digest fingerprint.
func TestIndexedPlannerMatchesScan(t *testing.T) {
	policies := []Policy{OnlyPartial, Default, FulltoPartial, NewHome, FullOnly}
	strategies := []placement.Strategy{nil, placement.Random{}, placement.BestFit{}, placement.RandomBestK{K: 3}}
	const ticks = 30
	for _, pol := range policies {
		for seed := uint64(1); seed <= 3; seed++ {
			strat := strategies[int(seed+uint64(pol))%len(strategies)]
			name := fmt.Sprintf("%v/seed=%d", pol, seed)
			if strat != nil {
				name += "/" + strat.Name()
			}
			t.Run(name, func(t *testing.T) {
				cfg := equivConfig(pol, seed)
				cfg.Placement = strat

				scanFP, scanWork := runPlanner(t, cfg, true, ticks, 1)
				idxFP, idxWork := runPlanner(t, cfg, false, ticks, 1)
				if scanFP != idxFP {
					t.Errorf("digest fingerprints diverge: scan %#x, indexed %#x", scanFP, idxFP)
				}
				if scanWork.Picks != idxWork.Picks {
					t.Errorf("pick counts diverge: scan %d, indexed %d — the planners took different decision paths",
						scanWork.Picks, idxWork.Picks)
				}
				if idxWork.Candidates > scanWork.Candidates {
					t.Errorf("indexed planner examined %d candidates, scan %d — the index walked more than the full scan",
						idxWork.Candidates, scanWork.Candidates)
				}
			})
		}
	}
}

// TestIndexedPlannerMatchesScanSaturated is the equivalence gate at the
// shape the control-plane stress benchmark times (a tenth of its size):
// 1,000 hosts, every VM idle, and consolidation hosts that hold under
// half the idle demand, so most searches fail. There too the index must
// decide as the scan does and examine no more hosts than it.
func TestIndexedPlannerMatchesScanSaturated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = FulltoPartial
	cfg.HomeHosts, cfg.ConsHosts, cfg.VMsPerHost = 900, 100, 12
	cfg.VMAlloc = 4 * units.GiB
	cfg.HostCap = 64 * units.GiB
	cfg.HostReserved = 4 * units.GiB
	cfg.VacateHeadroom = 0.88
	cfg.Seed = 42
	cfg.NoTelemetry = true
	scanFP, scanWork := runPlanner(t, cfg, true, 10, 0)
	idxFP, idxWork := runPlanner(t, cfg, false, 10, 0)
	if scanFP != idxFP || scanWork.Picks != idxWork.Picks {
		t.Errorf("planners diverge: scan %#x after %d picks, indexed %#x after %d", scanFP, scanWork.Picks, idxFP, idxWork.Picks)
	}
	if idxWork.Candidates > scanWork.Candidates {
		t.Errorf("indexed planner examined %d candidates, scan %d", idxWork.Candidates, scanWork.Candidates)
	}
}

// TestCapIndexConsistency cross-checks the index against ground truth
// after a busy run: every consolidation host filed in exactly one
// bucket, under the bit length of its live headroom, and the vacatable
// set equal to the powered-with-VMs predicate.
func TestCapIndexConsistency(t *testing.T) {
	cfg := equivConfig(FulltoPartial, 11)
	s := simtime.New()
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	active := make([]bool, len(c.VMs))
	for i := 0; i < 25; i++ {
		for j := range active {
			active[j] = r.Bool(0.3)
		}
		if err := c.Tick(active); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(s.Now().Add(cfg.PlanEvery))

		x := c.capIdx
		seen := make(map[int]int)
		for b, ids := range x.buckets {
			for p, i := range ids {
				if x.bucket[i] != b || x.pos[i] != p {
					t.Fatalf("tick %d: cons host %d bookkeeping (bucket %d pos %d) disagrees with placement (bucket %d pos %d)",
						i, i, x.bucket[i], x.pos[i], b, p)
				}
				seen[i]++
			}
		}
		for i, h := range c.consHosts() {
			if seen[i] != 1 {
				t.Fatalf("tick %d: cons host %d filed %d times", i, i, seen[i])
			}
			want := availBucket(h.Free() - x.reserve[i])
			if x.bucket[i] != want {
				t.Fatalf("tick %d: cons host %d in bucket %d, live headroom says %d", i, i, x.bucket[i], want)
			}
		}
		for i, h := range c.homeHosts() {
			if x.vacatable[i] != (h.Powered() && h.NumVMs() > 0) {
				t.Fatalf("tick %d: home %d vacatable=%v, live state says %v", i, i, x.vacatable[i], !x.vacatable[i])
			}
		}
	}
}

// settledCell builds a default-sized cell, drives it with one fixed
// activity vector until the planner has nothing left to move, and
// returns it with that vector. Home 0 is kept too busy to vacate (12 of
// its 30 VMs active); the rest of the cell is active at random with
// probability frac. At 0.15 the consolidation hosts fill up and a dozen
// homes stay candidates that no longer fit; at 0.05 there is room left.
func settledCell(t *testing.T, scan bool, frac float64) (*simtime.Simulator, *Cluster, []bool) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.NoTelemetry = true
	s := simtime.New()
	c, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scan {
		useScanPlanner(c)
	}
	r := rng.New(7)
	active := make([]bool, len(c.VMs))
	for i := range active {
		active[i] = r.Bool(frac)
		if i < cfg.VMsPerHost {
			active[i] = i < 12
		}
	}
	for i := 0; i < 12; i++ {
		if err := c.Tick(active); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(s.Now().Add(cfg.PlanEvery))
	}
	return s, c, active
}

// TestTickAllocs is the tick's allocation gate. An interval that changes
// nothing — same activity as the last, nothing that can be vacated —
// must not allocate, whether the planner has no candidates or a dozen
// that do not fit: per-VM and per-host state is dense and the planner's
// working state is retained on the Cluster. An interval that vacates one
// home may allocate only what outlives the tick (the plan, the deferred
// moves, the host transitions and their events): a few per home, not a
// few per VM.
func TestTickAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, scan := range []bool{false, true} {
		for _, frac := range []float64{0.15, 0.05} {
			s, c, active := settledCell(t, scan, frac)
			migrations := func() (n int64) {
				for _, v := range c.Stats.Ops {
					n += v
				}
				return n
			}
			interval := func() {
				if err := c.Tick(active); err != nil {
					t.Fatal(err)
				}
				s.RunUntil(s.Now().Add(c.Cfg.PlanEvery))
			}
			before, picks := migrations(), c.Planner.Picks
			if steady := testing.AllocsPerRun(20, interval); steady != 0 {
				t.Errorf("scan=%v frac=%v: a steady interval allocates %v times, want 0", scan, frac, steady)
			}
			if n := migrations() - before; n != 0 {
				t.Fatalf("scan=%v frac=%v: the cell was not settled: %d migrations in the steady intervals", scan, frac, n)
			}
			if frac == 0.15 {
				if c.Planner.Picks == picks {
					t.Fatalf("scan=%v: the full cell left the planner no candidate to try", scan)
				}
				continue
			}

			// Home 0 goes quiet: the next interval vacates it.
			clear(active[:c.Cfg.VMsPerHost])
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			interval()
			runtime.ReadMemStats(&m1)
			if n := migrations() - before; n != int64(c.Cfg.VMsPerHost) || c.Hosts[0].NumVMs() != 0 {
				t.Fatalf("scan=%v: home 0 was not vacated: %d migrations, host %v", scan, n, c.Hosts[0])
			}
			allocs := m1.Mallocs - m0.Mallocs
			t.Logf("scan=%v: vacating interval: %d allocs", scan, allocs)
			if allocs > 23 {
				t.Errorf("scan=%v: the interval that vacates one home allocates %d times, want <= 23", scan, allocs)
			}
		}
	}
}
