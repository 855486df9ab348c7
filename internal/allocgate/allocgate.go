// Package allocgate is what the allocation gates of several packages
// share. Only tests import it.
package allocgate

import "sync"

// WarmScheduler parks and wakes a few thousand goroutines, leaving the
// scheduler spare goroutine descriptors and wait records (sudogs). The
// runtime keeps both in per-P free lists: a goroutine started on one P
// and ended on another, or parked on one and woken on another, moves one
// between them, and a P whose list runs dry allocates. Code that starts
// or parks goroutines would otherwise count descriptors the runtime
// allocates once and keeps for good. A gate that calls it before each
// counted run should hold the collector off for the whole measurement:
// a cycle empties the runtime's shared sudog cache again.
func WarmScheduler() {
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for range 4096 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
		}()
	}
	close(gate)
	wg.Wait()
}
