//go:build unix

package experiments

import (
	"testing"
	"time"
)

// The fleet gate's clock counts work, not waiting: 50 ms asleep must
// read well under 50 ms of CPU, and a busy loop must see it pass 30 ms
// (within seconds, however loaded the box).
func TestProcessCPUCountsWorkNotSleep(t *testing.T) {
	t0 := processCPU()
	time.Sleep(50 * time.Millisecond)
	if slept := processCPU() - t0; slept > 25*time.Millisecond {
		t.Fatalf("50 ms asleep read %v of CPU", slept)
	}
	t1, deadline := processCPU(), time.Now().Add(10*time.Second)
	x := uint64(1)
	for processCPU()-t1 < 30*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("10 s of a busy loop read %v of CPU", processCPU()-t1)
		}
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	if x == 0 {
		t.Log(x) // keeps the loop
	}
}
