package experiments

import "testing"

// TestRebalanceGateNeedsEveryRunClean: one run with a failed read, a
// divergent readback or a range left under-replicated fails the gate,
// and with it oasis-bench's exit status.
func TestRebalanceGateNeedsEveryRunClean(t *testing.T) {
	clean := RebalanceMeasured{ByteIdentical: true}
	if g := rebalanceGate([]RebalanceMeasured{clean, clean}); !g.Pass || g.Ratio != 1 {
		t.Fatalf("all-clean runs: %+v, want a pass at ratio 1", g)
	}
	for name, bad := range map[string]RebalanceMeasured{
		"failed read":     {FailedReads: 1, ByteIdentical: true},
		"divergent bytes": {},
		"underreplicated": {ByteIdentical: true, UnderreplicatedAfter: 2},
	} {
		if g := rebalanceGate([]RebalanceMeasured{clean, bad, clean, clean}); g.Pass || g.Ratio != 0.75 {
			t.Errorf("%s: %+v, want a failure at ratio 0.75", name, g)
		}
	}
	if g := rebalanceGate(nil); g.Pass {
		t.Error("no runs passed the gate")
	}
}
