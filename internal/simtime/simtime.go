// Package simtime provides the discrete-event simulation core that drives
// the Oasis cluster simulator: a virtual clock and an event queue with
// deterministic ordering.
//
// All of §5's trace-driven evaluation runs on this engine. Events scheduled
// for the same instant fire in scheduling order, so simulations are fully
// reproducible for a fixed seed.
package simtime

import (
	"fmt"
	"time"
)

// Time is an instant on the simulation clock, expressed as an offset from
// the start of the simulation.
type Time time.Duration

// Common simulation-time constants.
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
)

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Hours returns t expressed in hours.
func (t Time) Hours() float64 { return time.Duration(t).Hours() }

// Duration converts t to a time.Duration offset.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String renders the instant as hh:mm:ss within the simulation.
func (t Time) String() string {
	d := time.Duration(t)
	h := int(d / time.Hour)
	d -= time.Duration(h) * time.Hour
	m := int(d / time.Minute)
	d -= time.Duration(m) * time.Minute
	s := d.Seconds()
	return fmt.Sprintf("%02d:%02d:%06.3f", h, m, s)
}

// event is a queued callback. The queue holds events by value, so
// scheduling one allocates nothing once the queue has grown.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by instant, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Simulator owns the virtual clock and event queue. The zero value is not
// usable; call New.
type Simulator struct {
	now   Time
	seq   uint64
	queue []event // a binary min-heap in (at, seq) order

	// Processed counts events that have fired, for diagnostics.
	Processed uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Schedule queues fn to run at instant at; name labels it in a panic.
// Scheduling in the past panics: it always indicates a model bug, and
// silently clamping would hide it.
func (s *Simulator) Schedule(at Time, name string, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling %q at %v before now %v", name, at, s.now))
	}
	q := append(s.queue, event{at: at, seq: s.seq, fn: fn})
	s.seq++
	// Sift the new event up from the last leaf.
	i := len(q) - 1
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// After queues fn to run d after the current instant.
func (s *Simulator) After(d time.Duration, name string, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.now.Add(d), name, fn)
}

// Step fires the next event, if any, advancing the clock to its instant.
// It reports whether an event fired.
func (s *Simulator) Step() bool {
	q := s.queue
	if len(q) == 0 {
		return false
	}
	top := q[0]
	// Sift the last event down from the root into the vacated place.
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // drop the closure for the collector
	q = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = e
	}
	s.queue = q
	s.now = top.at
	s.Processed++
	top.fn()
	return true
}

// Run fires events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// Fingerprint reduces the simulator's history to one well-mixed uint64:
// the clock, the scheduling sequence counter, and the fired-event count,
// splitmix64-finalised. Two runs that scheduled or fired even one event
// differently fingerprint differently with overwhelming probability, so
// the cluster digest can fold this in as a cheap proof that not just the
// outputs but the event history of two runs matched.
func (s *Simulator) Fingerprint() uint64 {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	f := mix(uint64(s.now) + 0x9e3779b97f4a7c15)
	f = mix(f ^ s.seq)
	return mix(f ^ s.Processed)
}

// RunUntil fires events with instants <= end, then advances the clock to
// end. Events scheduled beyond end remain queued.
func (s *Simulator) RunUntil(end Time) {
	for len(s.queue) > 0 && s.queue[0].at <= end {
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}
