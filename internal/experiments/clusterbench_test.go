package experiments

import "testing"

// TestClusterStressQuick runs the control-plane stress benchmark at its
// -quick geometry and checks the artifact is fully populated and
// internally consistent. It does not assert the plans/sec floor — the
// quick geometry is a tenth of the real one and timing-gated assertions
// belong to the committed BENCH_cluster.json run, not to `go test`.
func TestClusterStressQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster stress bench takes tens of seconds")
	}
	b, err := ClusterStress(Option{Seed: 42, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Experiment != "cluster" || b.Hosts != 1000 || b.VMs != 900*12 {
		t.Fatalf("unexpected geometry: %+v", b)
	}
	p := b.Planner
	if p.Picks == 0 || p.Candidates == 0 || p.PlansPerSec <= 0 || p.Fingerprint == "" {
		t.Fatalf("planner run not populated: %+v", p)
	}
	// The structural half of the gate is not a timing property: the index
	// must keep the walk short at any scale.
	if p.CandidatesPerPick > clusterCandidatesPerPick {
		t.Fatalf("planner examined %.2f candidates per pick, want <= %.2f", p.CandidatesPerPick, clusterCandidatesPerPick)
	}
	if len(b.Actuation) != 2 || b.Actuation[0].Mode != "serial" || b.Actuation[1].Mode != "batched" {
		t.Fatalf("want serial+batched actuation runs, got %+v", b.Actuation)
	}
	for _, a := range b.Actuation {
		if a.P50Ms <= 0 || a.P99Ms < a.P50Ms || a.StatsPerSec <= 0 {
			t.Fatalf("actuation run %q not populated: %+v", a.Mode, a)
		}
	}
	if b.MeasuredGate.Metric != "planner_plans_per_sec" || b.MeasuredGate.Ratio <= 0 {
		t.Fatalf("gate not populated: %+v", b.MeasuredGate)
	}
}
