package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing value (events, bytes). The zero
// value is usable but callers normally obtain counters from a Registry
// so they are exported.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta, which must be >= 0.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("telemetry: counter decrease")
	}
	addFloat(&c.bits, delta)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}

// Gauge is a value that can go up and down (active connections, breaker
// state, powered hosts).
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (which may be negative).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Histogram counts observations into fixed upper-bound buckets, keeping
// a running sum — the Prometheus histogram model, which is what lets
// latency percentiles be estimated from a scrape. Bounds are set at
// registration and shared by every series of the family.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // one per bound, plus +Inf at the end
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelsWith(labels, "le", formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelsWith(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// DefBuckets is the default latency bucket layout (seconds): 50 µs to
// ~26 s in powers of two, spanning loopback page fetches through breaker
// cooldowns.
var DefBuckets = ExpBuckets(50e-6, 2, 20)

// ExpBuckets returns count bucket bounds starting at start, each factor
// times the previous.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: invalid exponential buckets")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}
