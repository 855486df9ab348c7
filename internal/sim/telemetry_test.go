package sim

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oasis/internal/cluster"
	"oasis/internal/telemetry"
	"oasis/internal/trace"
)

// smallCfg is a fast cluster for determinism checks (a run takes well
// under a second).
func smallCfg(mtbf bool) Config {
	cc := cluster.DefaultConfig()
	cc.HomeHosts = 4
	cc.ConsHosts = 2
	cc.VMsPerHost = 8
	if mtbf {
		cc.MemServerMTBF = 6 * 3600 * 1e9 // 6h, as time.Duration nanoseconds
	}
	return Config{Cluster: cc, Kind: trace.Weekday, TraceSeed: 7}
}

// TestTelemetryDoesNotPerturbSimulation runs the same seed twice — the
// second time while a goroutine continuously scrapes the process
// registry — and requires bit-identical results. Telemetry is
// observation only: publishing draws no randomness and feeds nothing
// back, so a scrape (however aggressive) must not move a single byte of
// the outcome.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	quiet, err := Run(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			telemetry.Default.WritePrometheus(io.Discard)
			telemetry.Default.WriteText(io.Discard, "oasis_sim_")
		}
	}()
	scraped, err := Run(smallCfg(true))
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if quiet.SavingsPct != scraped.SavingsPct {
		t.Errorf("savings diverged under scraping: %v vs %v", quiet.SavingsPct, scraped.SavingsPct)
	}
	if quiet.OasisJoules != scraped.OasisJoules || quiet.BaselineJoules != scraped.BaselineJoules {
		t.Errorf("energy diverged under scraping")
	}
	if !reflect.DeepEqual(quiet.Stats, scraped.Stats) {
		t.Errorf("stats diverged under scraping:\n%+v\nvs\n%+v", quiet.Stats, scraped.Stats)
	}
	if !reflect.DeepEqual(quiet.ActiveSeries, scraped.ActiveSeries) ||
		!reflect.DeepEqual(quiet.PoweredSeries, scraped.PoweredSeries) {
		t.Errorf("interval series diverged under scraping")
	}
}

// TestSimGaugesMatchResult checks the oasis_sim_* gauges left behind by
// a finished run agree with the Result the caller got — the same
// single-source-of-truth property the CLI's registry dump relies on.
func TestSimGaugesMatchResult(t *testing.T) {
	res, err := Run(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(name string, labels ...telemetry.Label) float64 {
		return telemetry.Default.Gauge(name, "", labels...).Value()
	}
	if got := gauge("oasis_sim_exhaustions"); got != float64(res.Stats.Exhaustions) {
		t.Errorf("oasis_sim_exhaustions = %v, Result has %d", got, res.Stats.Exhaustions)
	}
	if got := gauge("oasis_sim_memserver_outages"); got != float64(res.Stats.MemServerOutages) {
		t.Errorf("oasis_sim_memserver_outages = %v, Result has %d", got, res.Stats.MemServerOutages)
	}
	if got := gauge("oasis_sim_forced_promotions"); got != float64(res.Stats.ForcedPromotions) {
		t.Errorf("oasis_sim_forced_promotions = %v, Result has %d", got, res.Stats.ForcedPromotions)
	}
	if got := gauge("oasis_sim_network_bytes", telemetry.L("category", "full")); got != float64(res.Stats.FullBytes) {
		t.Errorf("oasis_sim_network_bytes{full} = %v, Result has %d", got, res.Stats.FullBytes)
	}
	for k, n := range res.Stats.Ops {
		kind := cluster.Op(k).String()
		if got := gauge("oasis_sim_ops", telemetry.L("kind", kind)); got != float64(n) {
			t.Errorf("oasis_sim_ops{kind=%q} = %v, Result has %d", kind, got, n)
		}
	}
	l := []telemetry.Label{
		telemetry.L("policy", res.Policy.String()),
		telemetry.L("kind", res.Kind.String()),
	}
	if got := gauge("oasis_sim_savings_percent", l...); got != res.SavingsPct {
		t.Errorf("oasis_sim_savings_percent = %v, Result has %v", got, res.SavingsPct)
	}
	if got := gauge("oasis_sim_availability", l...); got != res.Availability {
		t.Errorf("oasis_sim_availability = %v, Result has %v", got, res.Availability)
	}

	// And the text dump carries those very values.
	var b strings.Builder
	if err := telemetry.Default.WriteText(&b, "oasis_sim_"); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("oasis_sim_exhaustions %s\n",
		strconv.FormatFloat(float64(res.Stats.Exhaustions), 'g', -1, 64))
	if !strings.Contains(b.String(), want) {
		t.Errorf("text dump missing %q:\n%s", want, b.String())
	}
}
