//go:build !race

package simtime

import (
	"testing"
	"time"
)

// TestScheduleStepAllocatesNothing: once the queue has grown, scheduling
// a prebuilt closure and firing it allocates nothing.
func TestScheduleStepAllocatesNothing(t *testing.T) {
	s := New()
	fn := func() {}
	burst := func() {
		for i := 0; i < 64; i++ {
			s.After(time.Duration(i%7)*time.Second, "e", fn)
		}
		for s.Step() {
		}
	}
	burst() // grow the queue
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Fatalf("64 Schedule+Step pairs allocate %.0f times, want 0", n)
	}
}
