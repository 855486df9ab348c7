//go:build !unix

package experiments

import "time"

// processCPU is not measured off unix: it reads 0, and the fleet gate
// falls back to wall clock.
func processCPU() time.Duration { return 0 }
