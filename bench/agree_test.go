package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

// runs builds one record per value for a workload and metric, seeds 0..n-1.
func runs(workload, metric string, values ...float64) []record {
	var out []record
	for i, v := range values {
		out = append(out, record{
			Workload: workload, Seed: uint64(i),
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{metric: {Value: v}}},
		})
	}
	return out
}

func TestAgree(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	cases := []struct {
		name    string
		a, b    []record
		verdict string
		ok      bool
	}{
		{"same values", runs("vdi-cycle", "op_p50_ms", steady...), runs("vdi-cycle", "op_p50_ms", steady...), verdictUnchanged, true},
		{"inside the bound", runs("vdi-cycle", "op_p50_ms", steady...), runs("vdi-cycle", "op_p50_ms", 105, 106, 104, 105, 105), verdictUnchanged, true},
		{"slower beyond the bound", runs("vdi-cycle", "op_p50_ms", steady...), runs("vdi-cycle", "op_p50_ms", 130, 131, 129, 130, 130), verdictDiffers, false},
		{"faster beyond the bound is still a disagreement of same code", runs("fleet-sim", "units_per_s", steady...), runs("fleet-sim", "units_per_s", 140, 141, 139, 140, 140), verdictDiffers, false},
		{"a noisy set is unresolved, not unchanged", runs("vdi-cycle", "op_p50_ms", 80, 100, 120, 90, 110), runs("vdi-cycle", "op_p50_ms", steady...), verdictUnresolved, false},
		{"setup_s is judged by its medians alone", runs("fabric-r2", "setup_s", 0.17, 0.26, 0.17, 0.25, 0.17), runs("fabric-r2", "setup_s", 0.17, 0.17, 0.18, 0.26, 0.17), verdictUnchanged, true},
		{"setup_s has the widest bound", runs("fabric-r2", "setup_s", 1, 1, 1), runs("fabric-r2", "setup_s", 1.2, 1.2, 1.2), verdictUnchanged, true},
		{"per-layer timings carry no bound", runs("reattach-serve", "memserver.get_page_us", 30, 31), runs("reattach-serve", "memserver.get_page_us", 60, 61), verdictInfo, true},
		{"exact counts equal per seed", runs("fleet-sim", "cluster.planner_picks", 22004, 21000), runs("fleet-sim", "cluster.planner_picks", 22004, 21000), verdictIdentical, true},
		{"exact counts differing on a shared seed", runs("fleet-sim", "cluster.planner_picks", 22004, 21000), runs("fleet-sim", "cluster.planner_picks", 22004, 21001), verdictDiffers, false},
		{"metric missing from one set", runs("vdi-cycle", "op_p50_ms", steady...), nil, verdictDiffers, false},
	}
	for _, c := range cases {
		rows, ok := agree(c.a, c.b)
		if len(rows) != 1 {
			t.Errorf("%s: %d rows, want 1", c.name, len(rows))
			continue
		}
		if rows[0].verdict != c.verdict || ok != c.ok {
			t.Errorf("%s: verdict %q ok %v, want %q %v (rel %.3f)", c.name, rows[0].verdict, ok, c.verdict, c.ok, rows[0].rel)
		}
	}
}

func TestAgreeFailsOnAnIncorrectRun(t *testing.T) {
	a := runs("vdi-cycle", "op_p50_ms", 100, 100)
	b := runs("vdi-cycle", "op_p50_ms", 100, 100)
	b[1].Correct = false
	if _, ok := agree(a, b); ok {
		t.Error("a set with an incorrect run agreed")
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", s)
	}
	if s := spread([]float64{3}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}
