package migration

import (
	"math"
	"testing"
	"time"

	"oasis/internal/units"
	"oasis/internal/workload"
)

func secondsApprox(t *testing.T, got time.Duration, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got.Seconds()-want) > tol {
		t.Errorf("%s = %.1fs, want %.1f±%.1fs", what, got.Seconds(), want, tol)
	}
}

// TestFig5Latencies verifies the micro-benchmark calibration against the
// Figure 5 measurements: full 41 s, first partial 15.7 s (10.2 s upload +
// 5.2 s descriptor), repeat partial 7.2 s (2.2 s differential upload),
// reintegration 3.7 s.
func TestFig5Latencies(t *testing.T) {
	m := MicroBenchModel()
	alloc := 4 * units.GiB
	desc := 16 * units.MiB

	full := m.FullMigration(alloc, false)
	secondsApprox(t, full.Latency, 41, 2, "full migration")
	if full.NetBytes != alloc {
		t.Errorf("full migration bytes = %v", full.NetBytes)
	}

	p1 := m.PartialMigration(alloc, desc, true)
	secondsApprox(t, p1.Latency, 15.7, 1.0, "first partial migration")
	// The SAS upload alone is ~10.2 s worth of writes.
	secondsApprox(t, units.TransferTime(p1.SASBytes, m.SAS), 10.2, 0.8, "first memory upload")

	// Second consolidation: only pages dirtied since the last upload (the
	// measured 2.2 s at 128 MiB/s implies ~282 MiB compressed).
	dirty := units.Bytes(874 * units.MiB)
	p2 := m.PartialMigration(dirty, desc, false)
	secondsApprox(t, p2.Latency, 7.2, 0.8, "differential partial migration")
	if p2.SASBytes >= p1.SASBytes/3 {
		t.Errorf("differential upload %v not much smaller than full %v", p2.SASBytes, p1.SASBytes)
	}

	dirtyMiB := 175.3
	re := m.Reintegration(units.Bytes(dirtyMiB * float64(units.MiB)))
	secondsApprox(t, re.Latency, 3.7, 0.4, "reintegration")
}

// TestNetworkTraffic verifies the §4.4.3 traffic split: full migration
// moves the whole 4 GiB over the network; partial migration puts only the
// ~16 MiB descriptor on the network (memory goes over the local SAS link).
func TestNetworkTraffic(t *testing.T) {
	m := MicroBenchModel()
	alloc := 4 * units.GiB
	desc := 16 * units.MiB

	full := m.FullMigration(alloc, false)
	p := m.PartialMigration(alloc, desc, true)
	if p.NetBytes != desc {
		t.Errorf("partial network bytes = %v, want %v", p.NetBytes, desc)
	}
	if full.NetBytes < 200*p.NetBytes {
		t.Errorf("full/partial network ratio only %d", full.NetBytes/p.NetBytes)
	}
	if p.SASBytes == 0 || full.SASBytes != 0 {
		t.Error("SAS accounting wrong")
	}
}

// TestClusterModelFullMigration checks §5.1: fully migrating a 4 GiB VM
// over the rack's 10 GigE takes 10 s.
func TestClusterModelFullMigration(t *testing.T) {
	m := ClusterModel()
	op := m.FullMigration(4*units.GiB, false)
	secondsApprox(t, op.Latency, 10, 0.5, "cluster full migration")
}

func TestActivePrecopyCostsMore(t *testing.T) {
	m := MicroBenchModel()
	idle := m.FullMigration(4*units.GiB, false)
	active := m.FullMigration(4*units.GiB, true)
	if active.Latency <= idle.Latency || active.NetBytes <= idle.NetBytes {
		t.Error("active pre-copy not more expensive than idle")
	}
}

// TestFig6AppStartup verifies the start-up latency model: LibreOffice
// takes ~168 s on a partial VM (up to ~111x its full-VM start) while
// pre-fetching the entire remaining state takes only ~41 s.
func TestFig6AppStartup(t *testing.T) {
	m := MicroBenchModel()
	var libre workload.App
	for _, a := range workload.Apps() {
		if a.FaultPages > libre.FaultPages {
			libre = a
		}
	}
	partial := m.AppStartLatency(libre, true)
	secondsApprox(t, partial, 168, 5, "LibreOffice partial start")
	fullStart := m.AppStartLatency(libre, false)
	ratio := partial.Seconds() / fullStart.Seconds()
	if ratio < 90 || ratio > 130 {
		t.Errorf("partial/full ratio = %.0fx, want ~111x", ratio)
	}
	secondsApprox(t, m.PrefetchAll(4*units.GiB), 41, 2, "prefetch all")
	if partial < m.PrefetchAll(4*units.GiB) {
		t.Error("on-demand start should be slower than prefetching everything")
	}
}

func TestOnDemandFetchBounded(t *testing.T) {
	m := ClusterModel()
	ws := 165 * units.MiB
	short := m.OnDemandFetch(DesktopRate, ws, 10*time.Minute)
	long := m.OnDemandFetch(DesktopRate, ws, 10*time.Hour)
	if short <= 0 || short > ws {
		t.Errorf("short fetch = %v", short)
	}
	if long != ws {
		t.Errorf("long fetch = %v, want capped at working set %v", long, ws)
	}
	// ~188.2 MiB/hour for a desktop: 10 minutes is ~31 MiB.
	if mib := float64(short) / float64(units.MiB); math.Abs(mib-31.4) > 3 {
		t.Errorf("10-minute desktop fetch = %.1f MiB, want ~31", mib)
	}
}

func TestCompressionDisabled(t *testing.T) {
	m := MicroBenchModel()
	m.CompressionRatio = 0
	op := m.PartialMigration(units.GiB, units.MiB, true)
	if op.SASBytes != units.GiB {
		t.Errorf("uncompressed SAS bytes = %v", op.SASBytes)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Full: "full", PartialFirst: "partial-first",
		PartialDiff: "partial-diff", Reintegrate: "reintegrate", Kind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}
