//go:build !race

package agent

import (
	"slices"
	"testing"
	"time"
)

// TestNeighbourFaultDuringAdopt: a neighbour's demand faults during an
// adoption keep their p99 under what BenchmarkFaultDuringPrefetch
// (internal/memtap) records for a fault that queues behind 1024-page
// batches on the converting VM's own connection (PERFORMANCE.md). Timing
// only means something without the race detector.
func TestNeighbourFaultDuringAdopt(t *testing.T) {
	const bound = 5390 * time.Microsecond
	lat, _ := adoptBesideNeighbour(t)
	slices.Sort(lat)
	p50, p99 := lat[len(lat)/2], lat[len(lat)*99/100]
	t.Logf("%d neighbour faults during the adoption: p50 %v, p99 %v", len(lat), p50, p99)
	if p99 > bound {
		t.Fatalf("neighbour fault p99 %v during an adoption, want under %v", p99, bound)
	}
}
