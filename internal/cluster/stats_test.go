package cluster

import "testing"

func TestStatsDelayPercentiles(t *testing.T) {
	var s Stats
	s.init()
	// 6 zero-latency transitions and 4 sampled delays.
	s.ZeroTransitions = 6
	for _, d := range []float64{2, 3, 4, 19} {
		s.DelaySample.Add(d)
	}
	if got := s.Transitions(); got != 10 {
		t.Fatalf("Transitions = %d", got)
	}
	if zf := s.ZeroDelayFraction(); zf != 0.6 {
		t.Fatalf("ZeroDelayFraction = %v", zf)
	}
	// Percentiles inside the zero mass are zero.
	if got := s.DelayPercentile(50); got != 0 {
		t.Errorf("p50 = %v, want 0", got)
	}
	if got := s.DelayPercentile(60); got != 0 {
		t.Errorf("p60 = %v, want 0 (boundary)", got)
	}
	// Beyond the zero mass, percentiles map into the sample.
	if got := s.DelayPercentile(100); got != 19 {
		t.Errorf("p100 = %v, want 19", got)
	}
	if got := s.DelayPercentile(80); got <= 0 || got > 19 {
		t.Errorf("p80 = %v", got)
	}
	// Empty stats return zeros.
	var empty Stats
	if empty.ZeroDelayFraction() != 0 || empty.DelayPercentile(99) != 0 {
		t.Error("empty stats not zero")
	}
}

func TestStatsTrafficTotals(t *testing.T) {
	var s Stats
	s.init()
	s.FullBytes = 100
	s.ConvertBytes = 50
	s.DescriptorBytes = 10
	s.OnDemandBytes = 5
	s.ReintegrateBytes = 3
	s.SASBytes = 1000
	if s.NetworkBytes() != 168 {
		t.Errorf("NetworkBytes = %d", s.NetworkBytes())
	}
}
