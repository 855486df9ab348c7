package trace

import (
	"hash/fnv"
	"testing"
)

// userDayGoldenBase is the corpus base seed of the user-day golden.
const userDayGoldenBase = 0x5eed_0a51_5eed_0a51

// userDayGolden is the FNV-64a digest of 100,000 weekday and 100,000
// weekend user-days drawn by UserDayAt from userDayGoldenBase. It pins
// the generator's output bit for bit: a change to how a draw is made
// (a threshold in place of a float compare, a stack generator in place
// of a heap one) must leave every user-day, and so this value, alone.
const userDayGolden = 0x0721d112a15d28c2

// userDayDigest hashes n days of each kind, one byte per interval.
func userDayDigest(n int) uint64 {
	h := fnv.New64a()
	var row [IntervalsPerDay]byte
	for _, kind := range []DayKind{Weekday, Weekend} {
		for u := 0; u < n; u++ {
			d := UserDayAt(userDayGoldenBase, uint64(u), kind)
			for i, a := range d.Active {
				row[i] = 0
				if a {
					row[i] = 1
				}
			}
			h.Write(row[:])
		}
	}
	return h.Sum64()
}

func TestUserDayGolden(t *testing.T) {
	if got := userDayDigest(100_000); got != userDayGolden {
		t.Fatalf("user-day digest = %#x, want %#x", got, userDayGolden)
	}
}

// userDaySink keeps BenchmarkUserDayAt's days from being optimised away.
var userDaySink UserDay

// BenchmarkUserDayAt is one user-day, weekday and weekend alternately:
// the unit of trace.user_day_ns. `make bench-fleet` runs it.
func BenchmarkUserDayAt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		userDaySink = UserDayAt(userDayGoldenBase, uint64(i), DayKind(i&1))
	}
}
