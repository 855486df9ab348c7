package trace

import (
	"oasis/internal/rng"
)

// Generator parameters for the synthetic user model. A user-day is built
// from sessions: an arrival/departure envelope on weekdays with a lunch
// dip, alternating engagement bursts and short breaks inside the
// envelope, optional evening work, and rare overnight blips (backups,
// night owls) that keep P(all 30 VMs of a host idle) near the paper's 13%.
type genParams struct {
	absentProb      float64 // out of office all day
	arrivalMeanH    float64
	arrivalStdH     float64
	departMeanH     float64
	departStdH      float64
	lunchProb       float64
	lunchStartH     float64
	lunchLenMeanMin float64
	workBurstMin    float64 // mean active burst inside work hours
	workBreakMin    float64 // mean idle gap inside work hours
	eveningProb     float64
	eveningLenMin   float64
	nightBlipProb   float64 // per-interval background activity probability
	nightOwlProb    float64 // probability of a long overnight active session
	nightOwlLenH    float64 // mean overnight session length (hours)
}

var weekdayParams = genParams{
	absentProb:      0.13,
	arrivalMeanH:    9.0,
	arrivalStdH:     1.1,
	departMeanH:     17.6,
	departStdH:      1.3,
	lunchProb:       0.7,
	lunchStartH:     12.3,
	lunchLenMeanMin: 40,
	workBurstMin:    15,
	workBreakMin:    28,
	eveningProb:     0.38,
	eveningLenMin:   45,
	nightBlipProb:   0.004,
	nightOwlProb:    0.15,
	nightOwlLenH:    1.2,
}

var weekendParams = genParams{
	absentProb:      0.62,
	arrivalMeanH:    11.5,
	arrivalStdH:     2.5,
	departMeanH:     15.5,
	departStdH:      3.0,
	lunchProb:       0.3,
	lunchStartH:     12.5,
	lunchLenMeanMin: 50,
	workBurstMin:    16,
	workBreakMin:    38,
	eveningProb:     0.20,
	eveningLenMin:   40,
	nightBlipProb:   0.003,
	nightOwlProb:    0.10,
	nightOwlLenH:    1.0,
}

// GenerateUserDay synthesises one user-day of the given kind.
func GenerateUserDay(kind DayKind, r *rng.Rand) UserDay {
	p := weekdayParams
	if kind == Weekend {
		p = weekendParams
	}
	d := UserDay{Kind: kind}

	markRange := func(startMin, endMin float64) {
		s := int(startMin) / IntervalMinutes
		e := int(endMin) / IntervalMinutes
		for i := s; i <= e && i < IntervalsPerDay; i++ {
			if i >= 0 {
				d.Active[i] = true
			}
		}
	}

	if !r.Bool(p.absentProb) {
		arrive := r.TruncNorm(p.arrivalMeanH, p.arrivalStdH, 6.0, 12.5) * 60
		depart := r.TruncNorm(p.departMeanH, p.departStdH, 13.0, 22.0) * 60
		if depart <= arrive {
			depart = arrive + 60
		}
		lunchStart, lunchEnd := -1.0, -1.0
		if r.Bool(p.lunchProb) {
			lunchStart = r.TruncNorm(p.lunchStartH, 0.4, 11.5, 13.5) * 60
			lunchEnd = lunchStart + r.Exp(p.lunchLenMeanMin)
		}
		// Alternate bursts of engagement and breaks inside the envelope.
		t := arrive
		for t < depart {
			burst := r.Exp(p.workBurstMin) + float64(IntervalMinutes)
			end := t + burst
			if end > depart {
				end = depart
			}
			// Skip activity that falls inside the lunch break.
			if lunchStart >= 0 && t < lunchEnd && end > lunchStart {
				if t < lunchStart {
					markRange(t, lunchStart)
				}
				t = lunchEnd
				continue
			}
			markRange(t, end)
			t = end + r.Exp(p.workBreakMin) + 1
		}
		if r.Bool(p.eveningProb) {
			start := r.TruncNorm(20.0, 1.2, 18.5, 23.0) * 60
			markRange(start, start+r.Exp(p.eveningLenMin))
		}
		// Mornings are lighter than afternoons in the source traces
		// (Figure 7 peaks around 2 pm): thin pre-lunch activity so the
		// aggregate envelope crests after lunch. Interval 150 starts at
		// 12:30; each draw is Bool(0.22) as an integer compare.
		if kind == Weekday {
			thin := rng.Threshold(0.22)
			for i := 0; i < 150; i++ {
				if d.Active[i] && r.Below(thin) {
					d.Active[i] = false
				}
			}
		}
	}

	// A minority of user-days carry a long overnight active session —
	// remote workers in other time zones, overnight experiments,
	// attended builds. These keep P(all 30 VMs of a host idle) near the
	// paper's 13% without per-interval churn: the activity is sustained,
	// not flickering.
	if r.Bool(p.nightOwlProb) {
		start := r.Float64() * 10 * 60 // somewhere in the 22:00-08:00 band
		lenMin := (r.Exp(p.nightOwlLenH-1) + 1) * 60
		// The band wraps midnight: 22:00-24:00 maps to the day's tail.
		s := start - 2*60
		if s < 0 {
			s += 24 * 60
		}
		markRange(s, s+lenMin)
		if s+lenMin > 24*60 {
			markRange(0, s+lenMin-24*60)
		}
	}

	// Rare residual blips across the whole day outside the marked
	// sessions (a mail check, a nudged mouse).
	blip := rng.Threshold(p.nightBlipProb)
	for i := 0; i < IntervalsPerDay; i++ {
		if !d.Active[i] && r.Below(blip) {
			d.Active[i] = true
		}
	}
	return d
}

// Generate synthesises a corpus of n user-days of the given kind. It
// draws one base seed from r and derives each user-day from (base, user
// index) — see stream.go — so the materialized slice is bit-identical
// to streaming the same corpus, and any one user's day can be
// regenerated without the others.
func Generate(kind DayKind, n int, r *rng.Rand) []UserDay {
	return GenerateSeeded(kind, n, r.Uint64())
}

// GenerateSeeded synthesises a corpus of n user-days directly from a
// base seed, user i drawn from rng.New(UserSeed(base, i)).
func GenerateSeeded(kind DayKind, n int, base uint64) []UserDay {
	out := make([]UserDay, n)
	for i := range out {
		out[i] = UserDayAt(base, uint64(i), kind)
	}
	return out
}

// GenerateSet is a convenience that generates and wraps n user-days.
func GenerateSet(kind DayKind, n int, r *rng.Rand) *Set {
	return &Set{Days: Generate(kind, n, r)}
}
