//go:build !race

package wire

import (
	"runtime/debug"
	"testing"

	"oasis/internal/allocgate"
)

// TestPageCallAllocs is the control path's allocation gate: one
// ReadPage-shaped call, both ends in process, counting what client and
// server allocate together. What is left is the caller's params boxed as
// an interface, the one params decode (the handler's argument and
// encoding/json's decode state) and the reply payload the caller keeps;
// the envelope, the header scratch and the writev allocate nothing. The
// bound is the reading when it was set. The collector is held off and the
// scheduler warmed (allocgate.WarmScheduler), since each call parks and
// wakes a goroutine at both ends.
func TestPageCallAllocs(t *testing.T) {
	const bound = 7
	c := pageCallClient(t)
	call := func() {
		if _, err := c.CallPayload("Agent.ReadPage", pageCallArgs, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		call()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocgate.WarmScheduler()
	got := testing.AllocsPerRun(200, call)
	t.Logf("%.2f allocations per page call", got)
	if got > bound {
		t.Fatalf("a page call allocates %.2f times; want at most %d", got, bound)
	}
}
