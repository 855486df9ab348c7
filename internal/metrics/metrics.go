// Package metrics provides the small statistics toolkit the evaluation
// uses: streaming mean/variance, sample sets with percentiles and CDFs,
// histograms, and time-weighted accumulators for energy-style integrals.
package metrics

import (
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance (0 with fewer than two observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Sample collects raw observations for percentile and CDF queries.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. Empty samples yield 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CDFPoint is one (value, cumulative-probability) pair.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns up to points evenly spaced points of the empirical CDF,
// suitable for plotting.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.xs) == 0 || points <= 0 {
		return nil
	}
	s.sort()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(s.xs) / points
		if idx > len(s.xs) {
			idx = len(s.xs)
		}
		out = append(out, CDFPoint{X: s.xs[idx-1], P: float64(idx) / float64(len(s.xs))})
	}
	return out
}

// Raw returns the observations in place, in no particular order. The
// caller must not change them; they are valid until the next Add or
// Reset.
func (s *Sample) Raw() []float64 { return s.xs }

// Reset empties s and takes buf's backing array for the observations to
// come, so a caller that runs many samples one after another can lend
// each the array the last one grew (Raw returns it). A nil buf leaves s
// as a zero Sample.
func (s *Sample) Reset(buf []float64) {
	s.xs, s.sorted = buf[:0], false
}

// TimeWeighted integrates a piecewise-constant value over time, e.g. power
// (watts) into energy (joules). Times are arbitrary float seconds.
type TimeWeighted struct {
	lastT   float64
	lastV   float64
	total   float64
	started bool
}

// Set records that the value became v at time t, accumulating the integral
// of the previous value over [lastT, t].
func (tw *TimeWeighted) Set(t, v float64) {
	if tw.started && t > tw.lastT {
		tw.total += tw.lastV * (t - tw.lastT)
	}
	tw.lastT = t
	tw.lastV = v
	tw.started = true
}

// Total returns the integral up to time t (extending the current value).
func (tw *TimeWeighted) Total(t float64) float64 {
	if !tw.started {
		return 0
	}
	total := tw.total
	if t > tw.lastT {
		total += tw.lastV * (t - tw.lastT)
	}
	return total
}
