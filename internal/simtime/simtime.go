// Package simtime provides the discrete-event simulation core that drives
// the Oasis cluster simulator: a virtual clock and an event queue with
// deterministic ordering.
//
// All of §5's trace-driven evaluation runs on this engine. Events scheduled
// for the same instant fire in scheduling order, so simulations are fully
// reproducible for a fixed seed.
package simtime

import (
	"container/heap"
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

// Event is a scheduled callback.
type Event struct {
	at    Time
	seq   uint64
	name  string
	fn    func()
	index int // heap index, -1 when not queued
}

// Time returns the instant the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.at }

// Name returns the descriptive label the event was scheduled with.
func (e *Event) Name() string { return e.name }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Simulator owns the virtual clock and event queue. The zero value is not
// usable; call New.
type Simulator struct {
	now   Time
	seq   uint64
	queue eventQueue

	// Processed counts events that have fired, for diagnostics.
	Processed uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	s := &Simulator{}
	heap.Init(&s.queue)
	return s
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Schedule queues fn to run at instant at. Scheduling in the past panics:
// it always indicates a model bug, and silently clamping would hide it.
func (s *Simulator) Schedule(at Time, name string, fn func()) *Event {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling %q at %v before now %v", name, at, s.now))
	}
	e := &Event{at: at, seq: s.seq, name: name, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// After queues fn to run d after the current instant.
func (s *Simulator) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), name, fn)
}

// Step fires the next event, if any, advancing the clock to its instant.
// It reports whether an event fired.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.now = e.at
	s.Processed++
	e.fn()
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
