package trace

import (
	"oasis/internal/rng"
)

// Streaming generation. The materializing API (Generate, GenerateSet)
// caps corpus size at what fits in memory; a million-user fleet needs
// each user's day synthesised on demand and thrown away. The contract
// here is per-user seeding: every user's day derives from
// (base seed, user index) alone, so
//
//   - a Stream yields user-days in O(1) memory,
//   - any single user's day is reproducible without generating the
//     users before it (order independence), and
//   - a parallel simulator can hand disjoint user ranges to workers and
//     still produce exactly the corpus a serial sweep would.
//
// Generate is itself built on UserDayAt, so the streamed output is
// bit-identical to the materialized legacy slices at the same base seed.

// UserSeed derives the seed for one user's generator from a corpus base
// seed and the user's global index. Splitmix-style mixing (rng.Mix64)
// means adjacent indices share no low-bit structure.
func UserSeed(base, user uint64) uint64 { return rng.Mix64(base, user) }

// daySeed folds the day kind into the user seed so a user's weekday and
// weekend days are uncorrelated streams rather than the same draw fed
// through different parameters.
func daySeed(base, user uint64, kind DayKind) uint64 {
	return rng.Mix64(UserSeed(base, user), uint64(kind))
}

// UserDayAt synthesises user `user`'s day of the given kind from the
// corpus base seed, independent of every other user.
func UserDayAt(base, user uint64, kind DayKind) UserDay {
	var r rng.Rand
	r.Seed(daySeed(base, user, kind))
	return GenerateUserDay(kind, &r)
}

// Stream yields the user-days of a seeded corpus one at a time in O(1)
// memory. It is the streaming equivalent of GenerateSeeded(kind, n,
// base): the i-th Next() result equals GenerateSeeded(...)[i].
type Stream struct {
	base uint64
	kind DayKind
	n    int
	next int
}

// NewStream returns an iterator over n user-days of the given kind
// derived from base.
func NewStream(kind DayKind, n int, base uint64) *Stream {
	return &Stream{base: base, kind: kind, n: n}
}

// Next yields the next user-day, or ok=false when the stream is
// exhausted.
func (s *Stream) Next() (d UserDay, ok bool) {
	if s.next >= s.n {
		return UserDay{}, false
	}
	d = UserDayAt(s.base, uint64(s.next), s.kind)
	s.next++
	return d, true
}

// Rotate shifts the day's activity pattern circularly by the given
// number of 5-minute intervals (positive = later in UTC terms), wrapping
// past midnight. A fleet spread across timezones replays the same local
// diurnal pattern offset per zone: a user at UTC+8 whose local 9am burst
// should land at 01:00 UTC is Rotate(-8*12) of the local-time day.
func (d UserDay) Rotate(intervals int) UserDay {
	shift := intervals % IntervalsPerDay
	if shift < 0 {
		shift += IntervalsPerDay
	}
	if shift == 0 {
		return d
	}
	out := UserDay{Kind: d.Kind}
	for i, a := range d.Active {
		out.Active[(i+shift)%IntervalsPerDay] = a
	}
	return out
}
