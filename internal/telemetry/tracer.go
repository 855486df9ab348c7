package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans — one timed operation each, subdivided into named
// stages — into a fixed-size ring, newest evicting oldest. It exists for
// the page-fault service path: fault → tap lookup → remote fetch →
// decompress → resolve, where knowing *which* stage ate the latency is
// the difference between blaming the network and blaming the
// decompressor. Snapshot and WriteText expose the ring; Serve mounts it
// at /traces.
//
// Tracing is sampled (SetSampling) so the ring can stay small and the
// hot path cheap: a sampled-out Start returns a nil *Span, and every
// Span method is nil-safe, so call sites need no branches. A sampled-in
// span allocates nothing either: spans are recycled, and each ring slot
// keeps the stage array it copies a finished span's stages into.
type Tracer struct {
	mu    sync.Mutex
	ring  []SpanRecord // every slot's Stages has spanStages capacity of its own
	held  int          // slots holding a span (≤ len(ring))
	next  int
	total uint64

	seq   atomic.Uint64
	every uint64 // sample 1 in every; 0 disables tracing entirely
}

// spanStages is the stage capacity a span and a ring slot start with:
// the fault path records four.
const spanStages = 5

// FaultSampling is the default sampling of FaultPath: one fault in 64 is
// traced. A traced fault reads the clock about ten times and takes the
// ring's lock, about 0.35 µs on a 7 µs loopback fault (PERFORMANCE.md,
// "A demand fault at the loopback floor"); one in 64 makes that about
// 5 ns a fault, and the ring's 256 spans still cover the last 16,384
// faults. The fault histograms still count every fault; SetSampling(1)
// traces every one.
const FaultSampling = 64

// FaultPath is the process-wide tracer for the page-fault service path;
// memtap feeds it and Serve exposes it. It samples one fault in
// FaultSampling.
var FaultPath = func() *Tracer {
	t := NewTracer(256)
	t.SetSampling(FaultSampling)
	return t
}()

// NewTracer returns a tracer keeping the most recent capacity spans,
// sampling every span (SetSampling(1)).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	t := &Tracer{ring: make([]SpanRecord, capacity), every: 1}
	stages := make([]Stage, capacity*spanStages)
	for i := range t.ring {
		t.ring[i].Stages = stages[i*spanStages : i*spanStages : (i+1)*spanStages]
	}
	return t
}

// SetSampling makes Start return a live span once per every calls
// (1 = always, the default of NewTracer; 0 disables tracing).
func (t *Tracer) SetSampling(every int) {
	if every < 0 {
		every = 0
	}
	atomic.StoreUint64(&t.every, uint64(every))
}

// Stage is one named segment of a span.
type Stage struct {
	Name string
	Dur  time.Duration
}

// SpanRecord is a completed span.
type SpanRecord struct {
	Name   string
	Start  time.Time
	Total  time.Duration
	Stages []Stage
}

// Span is an in-flight trace. Obtain one from Start; mark stage
// boundaries with Stage or StageDuration; finish with End, after which
// the span is recycled and must not be touched. All methods are
// nil-safe.
type Span struct {
	t      *Tracer
	name   string
	start  time.Time
	last   time.Time
	stages []Stage
}

// spans recycles finished spans, stage arrays and all.
var spans = sync.Pool{New: func() any { return &Span{stages: make([]Stage, 0, spanStages)} }}

// Start begins a span, or returns nil when sampled out.
func (t *Tracer) Start(name string) *Span {
	every := atomic.LoadUint64(&t.every)
	if every == 0 {
		return nil
	}
	if every > 1 && t.seq.Add(1)%every != 0 {
		return nil
	}
	s := spans.Get().(*Span)
	now := time.Now()
	s.t, s.name, s.start, s.last, s.stages = t, name, now, now, s.stages[:0]
	return s
}

// Stage closes the current segment at now, naming it.
func (s *Span) Stage(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.stages = append(s.stages, Stage{Name: name, Dur: now.Sub(s.last)})
	s.last = now
}

// StageDuration records a segment whose duration was measured elsewhere
// (e.g. decompress time reported by the client); it does not advance the
// stage clock — follow a run of StageDuration calls with Mark.
func (s *Span) StageDuration(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.stages = append(s.stages, Stage{Name: name, Dur: d})
}

// Mark advances the stage clock to now without recording a segment, so
// wall time already attributed via StageDuration is not double-counted
// by the next Stage call.
func (s *Span) Mark() {
	if s == nil {
		return
	}
	s.last = time.Now()
}

// End completes the span, records it into the ring slot it evicts (its
// stages copied into the slot's own array) and recycles it.
func (s *Span) End() {
	if s == nil {
		return
	}
	total := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	rec := &t.ring[t.next]
	rec.Name, rec.Start, rec.Total = s.name, s.start, total
	rec.Stages = append(rec.Stages[:0], s.stages...)
	t.next = (t.next + 1) % len(t.ring)
	t.held = min(t.held+1, len(t.ring))
	t.total++
	t.mu.Unlock()
	s.t = nil
	spans.Put(s)
}

// Len returns the number of spans currently held (≤ capacity).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held
}

// Total returns the number of spans recorded over the tracer's lifetime.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the held spans, newest first. Each record's stages
// are a copy: the ring reuses its slots' arrays.
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.held)
	for i := 1; i <= t.held; i++ {
		rec := t.ring[(t.next-i+len(t.ring))%len(t.ring)]
		rec.Stages = slices.Clone(rec.Stages)
		out = append(out, rec)
	}
	return out
}

// WriteText renders the held spans, newest first, one line each:
//
//	2026-08-06T10:15:04.123 fault total=1.27ms tap_lookup=1µs remote_fetch=1.2ms decompress=48µs resolve=3µs
func (t *Tracer) WriteText(w io.Writer) error {
	return t.WriteTextN(w, 0)
}

// WriteTextN is WriteText limited to the n newest spans (n <= 0 for
// all held).
func (t *Tracer) WriteTextN(w io.Writer, n int) error {
	recs := t.Snapshot()
	if n > 0 && n < len(recs) {
		recs = recs[:n]
	}
	for _, rec := range recs {
		if _, err := fmt.Fprintf(w, "%s %s total=%v",
			rec.Start.Format("2006-01-02T15:04:05.000000"), rec.Name, rec.Total); err != nil {
			return err
		}
		for _, st := range rec.Stages {
			if _, err := fmt.Fprintf(w, " %s=%v", st.Name, st.Dur); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
