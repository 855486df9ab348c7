package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`     // 1-based position in the recorder
	Parent int    `json:"parent"` // id of the enclosing span, 0 for a root
	Op     int    `json:"op"`     // the cycle, rep or fault the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// childNs is the part of [Start, End] covered by child spans; the
	// span's self time is its duration minus this.
	childNs int64
}

// recorder keeps the spans of a traced run in memory. The benchmark's
// client is one closed loop, so spans nest by time and a stack names each
// span's parent. A nil *recorder records nothing: the untraced run passes
// nil and pays one comparison per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // ids of open spans, innermost last
	op    int
	// per span name, every duration and self time in nanoseconds; filled
	// by aggregate, not while spans are being recorded
	dur  map[string][]float64
	self map[string][]float64
	// vals holds measurements that are not spans (a stage split a call
	// returned, a page count), by name.
	vals map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), vals: map[string][]float64{}}
}

// nextOp starts a new operation; spans begun from now on carry its id.
func (r *recorder) nextOp() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op++
	r.mu.Unlock()
}

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: r.op})
	r.stack = append(r.stack, id)
	r.spans[id-1].Start = time.Since(r.t0).Nanoseconds()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
	if s.Parent != 0 {
		r.spans[s.Parent-1].childNs += s.End - s.Start
	}
}

// aggregate groups the closed spans' durations and self times by name.
// Call it once recording is over, before reading dur and self.
func (r *recorder) aggregate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dur, r.self = map[string][]float64{}, map[string][]float64{}
	for i := range r.spans {
		s := &r.spans[i]
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		r.dur[s.Name] = append(r.dur[s.Name], float64(d))
		r.self[s.Name] = append(r.self[s.Name], float64(d-s.childNs))
	}
}

// value records a measurement that is not a span.
func (r *recorder) value(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vals[name] = append(r.vals[name], v)
	r.mu.Unlock()
}

// maxFileSpans bounds the span file; the per-name summary beside the
// spans always covers every span recorded.
const maxFileSpans = 50000

type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalNs  float64 `json:"total_ns"`
	SelfNs   float64 `json:"self_ns"`
	MedianNs float64 `json:"median_ns"`
}

// write stores the spans and their per-name summary as JSON.
func (r *recorder) write(path string) error {
	r.aggregate()
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.dur))
	for name := range r.dur {
		names = append(names, name)
	}
	sort.Strings(names)
	out := struct {
		Summary   []spanSummary `json:"summary"`
		Truncated bool          `json:"truncated"`
		Spans     []span        `json:"spans"`
	}{Spans: r.spans}
	if len(out.Spans) > maxFileSpans {
		out.Spans, out.Truncated = out.Spans[:maxFileSpans], true
	}
	for _, name := range names {
		out.Summary = append(out.Summary, spanSummary{
			Name: name, Count: len(r.dur[name]),
			TotalNs: sum(r.dur[name]), SelfNs: sum(r.self[name]), MedianNs: median(r.dur[name]),
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
