package workload

import (
	"math"
	"testing"
	"time"

	"oasis/internal/metrics"
	"oasis/internal/rng"
	"oasis/internal/units"
	"oasis/internal/vm"
)

func TestWorkingSetDistribution(t *testing.T) {
	r := rng.New(1)
	var w metrics.Welford
	for i := 0; i < 20000; i++ {
		ws := SampleWorkingSet(r)
		if ws < 16*units.MiB || ws > 1024*units.MiB {
			t.Fatalf("working set out of bounds: %v", ws)
		}
		w.Add(float64(ws) / float64(units.MiB))
	}
	// Paper: 165.63 ± 91.38 MiB. Truncation shifts the mean slightly.
	if math.Abs(w.Mean()-WSMeanMiB) > 8 {
		t.Errorf("working-set mean = %.1f MiB, want ~%.1f", w.Mean(), WSMeanMiB)
	}
	if math.Abs(w.Std()-WSStdMiB) > 13 {
		t.Errorf("working-set std = %.1f MiB, want ~%.1f", w.Std(), WSStdMiB)
	}
}

func TestWorkingSetByClass(t *testing.T) {
	r := rng.New(2)
	var desk, web, db metrics.Welford
	for i := 0; i < 5000; i++ {
		desk.Add(float64(SampleWorkingSetFor(r, vm.Desktop)) / float64(units.MiB))
		web.Add(float64(SampleWorkingSetFor(r, vm.WebServer)) / float64(units.MiB))
		db.Add(float64(SampleWorkingSetFor(r, vm.DBServer)) / float64(units.MiB))
	}
	if !(desk.Mean() > web.Mean() && web.Mean() > db.Mean()) {
		t.Errorf("class ordering broken: desktop %.1f, web %.1f, db %.1f",
			desk.Mean(), web.Mean(), db.Mean())
	}
	if web.Mean() < 16 || db.Mean() < 16 {
		t.Error("server working sets below floor")
	}
}

// TestFig1Rates checks the cumulative idle access volumes over one hour
// against Figure 1: desktop 188.2 MiB, web 37.6 MiB, db 30.6 MiB.
func TestFig1Rates(t *testing.T) {
	cases := []struct {
		class vm.Class
		want  float64
		tol   float64
	}{
		{vm.Desktop, 188.2, 30},
		{vm.WebServer, 37.6, 8},
		{vm.DBServer, 30.6, 10},
	}
	for _, c := range cases {
		// Average several runs to beat burst variance.
		var total float64
		const runs = 40
		r := rng.New(uint64(c.class) + 99)
		for i := 0; i < runs; i++ {
			pts := CumulativeAccess(c.class, time.Hour, r.Fork())
			total += pts[len(pts)-1].MiB
		}
		got := total / runs
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v: 1-hour access = %.1f MiB, want %.1f±%.0f", c.class, got, c.want, c.tol)
		}
	}
}

func TestCumulativeMonotone(t *testing.T) {
	pts := CumulativeAccess(vm.Desktop, time.Hour, rng.New(3))
	for i := 1; i < len(pts); i++ {
		if pts[i].MiB < pts[i-1].MiB || pts[i].At < pts[i-1].At {
			t.Fatal("cumulative access curve not monotone")
		}
	}
	if pts[len(pts)-1].At != time.Hour {
		t.Error("curve does not extend to the full duration")
	}
}

// TestFig2InterArrivals checks the sleep-opportunity measurement: one DB
// VM has a mean page-request inter-arrival of ~3.9 minutes; ten co-located
// VMs (5 db + 5 web) collapse it to ~5.8 seconds.
func TestFig2InterArrivals(t *testing.T) {
	r := rng.New(4)
	single := InterArrivals([]vm.Class{vm.DBServer}, 200*time.Hour, r.Fork())
	var w metrics.Welford
	for _, g := range single {
		w.Add(g)
	}
	if math.Abs(w.Mean()-234) > 15 {
		t.Errorf("single DB VM inter-arrival = %.1f s, want ~234 s (3.9 min)", w.Mean())
	}

	ten := make([]vm.Class, 0, 10)
	for i := 0; i < 5; i++ {
		ten = append(ten, vm.DBServer, vm.WebServer)
	}
	agg := InterArrivals(ten, 50*time.Hour, r.Fork())
	var wa metrics.Welford
	for _, g := range agg {
		wa.Add(g)
	}
	if math.Abs(wa.Mean()-5.8) > 0.8 {
		t.Errorf("10-VM inter-arrival = %.2f s, want ~5.8 s", wa.Mean())
	}
}

func TestNextBurstPositive(t *testing.T) {
	p := NewAccessProcess(vm.Desktop, rng.New(5))
	for i := 0; i < 1000; i++ {
		gap, pages := p.NextBurst()
		if gap < 0 || pages < 1 {
			t.Fatalf("invalid burst: gap=%v pages=%d", gap, pages)
		}
	}
}

func TestMeanRateMatchesCalibration(t *testing.T) {
	for _, c := range []struct {
		class vm.Class
		want  float64
	}{
		{vm.Desktop, 188.2}, {vm.WebServer, 37.6}, {vm.DBServer, 30.6},
	} {
		// Bursts per hour times MiB per burst; +1 page per burst from
		// the ceil in NextBurst.
		p := NewAccessProcess(c.class, rng.New(1))
		got := 3600 / p.meanGap * (p.meanPages + 1) * float64(units.PageSize) / float64(units.MiB)
		if math.Abs(got-c.want) > c.want*0.05 {
			t.Errorf("%v: analytic rate %.1f MiB/h, want %.1f", c.class, got, c.want)
		}
	}
}

func TestAppsTable(t *testing.T) {
	apps := Apps()
	if len(apps) < 5 {
		t.Fatalf("only %d apps", len(apps))
	}
	var worst App
	for _, a := range apps {
		if a.FullStart <= 0 || a.FaultPages <= 0 {
			t.Errorf("%s: invalid entry %+v", a.Name, a)
		}
		if a.FaultPages > worst.FaultPages {
			worst = a
		}
	}
	if worst.Name != "LibreOffice (document)" {
		t.Errorf("worst case is %s, want LibreOffice", worst.Name)
	}
}
