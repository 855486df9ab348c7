package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", w.Mean())
	}
	// Sample std of that classic set is ~2.138.
	if math.Abs(w.Std()-2.13809) > 1e-4 {
		t.Errorf("Std = %v", w.Std())
	}
	var empty Welford
	if empty.Mean() != 0 || empty.Std() != 0 {
		t.Error("empty Welford not zero")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Percentile(50) != 50.5 {
		t.Errorf("P50 = %v", s.Percentile(50))
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Error("extreme percentiles broken")
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Error("min/max broken")
	}
	if math.Abs(s.Mean()-50.5) > 1e-9 {
		t.Errorf("Mean = %v", s.Mean())
	}
	var empty Sample
	if empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.Std() != 0 {
		t.Error("empty sample must return zeros")
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(5)
	if len(pts) != 5 {
		t.Fatalf("CDF points = %d", len(pts))
	}
	if pts[len(pts)-1].P != 1 {
		t.Error("CDF does not reach 1")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P < pts[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev {
				ok = false
			}
			prev = v
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	if tw.Total(100) != 0 {
		t.Error("unstarted integral nonzero")
	}
	tw.Set(0, 100) // 100 W from t=0
	tw.Set(10, 50) // 50 W from t=10
	if got := tw.Total(20); got != 100*10+50*10 {
		t.Errorf("Total(20) = %v", got)
	}
	// Queries before the last set point do not extend.
	if got := tw.Total(5); got != 1000 {
		t.Errorf("Total(5) = %v", got)
	}
}
